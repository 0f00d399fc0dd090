//! Metric bundles for the dumpio layer and the `stats` protocol verb.
//!
//! The core crate owns the scan/mining/search bundles
//! ([`coldboot::scan::EngineMetrics`], [`coldboot::litmus::MiningMetrics`],
//! [`coldboot::keysearch::SearchMetrics`]); this module adds the I/O- and
//! service-level ones and renders a whole
//! [`MetricsRegistry`] snapshot as the service's hand-rolled [`Json`] — the
//! payload `dumpctl stats` prints.
//!
//! Everything here follows the same hygiene rule as the core bundles:
//! **names, counts, and durations only** — metric labels never embed key
//! bytes, addresses of hits, or any other image-derived value, and
//! `coldboot-lint`'s secret-print rule polices the call sites.

use std::sync::Arc;

use coldboot::keysearch::SearchMetrics;
use coldboot::litmus::MiningMetrics;
use coldboot_metrics::{Counter, Gauge, Histogram, MetricsRegistry, SnapshotValue};

use crate::json::Json;

/// Container-level counters for one [`crate::reader::DumpReader`].
///
/// `chunks_raw` vs `chunks_rle` gives the RLE raw-fallback rate (how much
/// of the image was incompressible). CBDF has no retry concept — an
/// integrity failure (chunk CRC mismatch or malformed RLE stream) is fatal
/// to the read — so failures are *counted* in `integrity_errors` as they
/// surface, then propagated as errors.
#[derive(Debug)]
pub struct ReaderMetrics {
    /// Chunks that arrived raw-encoded (`dump_chunks_raw`).
    pub chunks_raw: Arc<Counter>,
    /// Chunks that arrived zero-run RLE encoded (`dump_chunks_rle`).
    pub chunks_rle: Arc<Counter>,
    /// Chunk CRC mismatches + malformed RLE streams
    /// (`dump_integrity_errors`).
    pub integrity_errors: Arc<Counter>,
    /// Per-chunk read+decode+verify latency (`dump_chunk_decode_us`).
    pub chunk_decode_us: Arc<Histogram>,
}

impl ReaderMetrics {
    /// Registers (or re-attaches to) the reader counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self {
            chunks_raw: registry.counter("dump_chunks_raw"),
            chunks_rle: registry.counter("dump_chunks_rle"),
            integrity_errors: registry.counter("dump_integrity_errors"),
            chunk_decode_us: registry.latency_histogram("dump_chunk_decode_us"),
        })
    }
}

/// Streaming-pipeline bundles: window-level timings plus the core mining
/// and search bundles the pipeline attaches to its miner/searcher.
#[derive(Debug)]
pub struct PipelineMetrics {
    /// Scan windows assembled and processed (`pipeline_windows`).
    pub windows: Arc<Counter>,
    /// Per-window scan (absorb/push) latency (`pipeline_window_scan_us`).
    pub window_scan_us: Arc<Histogram>,
    /// Producer-side read+RLE+CRC latency per window
    /// (`pipeline_decode_us`). This time runs on the producer thread,
    /// overlapped with the scan — comparing it with `scan_stall_us` shows
    /// how much decode latency the overlap hides.
    pub decode_us: Arc<Histogram>,
    /// Time the scan side spent stalled waiting for the producer to hand
    /// over the next window (`pipeline_scan_stall_us`). Near-zero stalls
    /// mean the pipeline is scan-bound and the overlap win is maximal.
    pub scan_stall_us: Arc<Histogram>,
    /// Mining-stage counters (`mine_*`).
    pub mining: Arc<MiningMetrics>,
    /// Search-stage counters (`search_*`).
    pub search: Arc<SearchMetrics>,
}

impl PipelineMetrics {
    /// Registers (or re-attaches to) the pipeline counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self {
            windows: registry.counter("pipeline_windows"),
            window_scan_us: registry.latency_histogram("pipeline_window_scan_us"),
            decode_us: registry.latency_histogram("pipeline_decode_us"),
            scan_stall_us: registry.latency_histogram("pipeline_scan_stall_us"),
            mining: MiningMetrics::register(registry),
            search: SearchMetrics::register(registry),
        })
    }
}

/// The full `coldboot-dumpd` metric set: job lifecycle counters, queue
/// health, per-job stage histograms, and the nested pipeline/reader
/// bundles — everything the `stats` verb snapshots.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// The registry all handles live in; [`snapshot_json`] reads it.
    pub registry: Arc<MetricsRegistry>,
    /// Pipeline + core-stage bundles shared by every worker.
    pub pipeline: Arc<PipelineMetrics>,
    /// Reader bundle shared by every worker's [`crate::reader::DumpReader`].
    pub reader: Arc<ReaderMetrics>,
    /// Jobs accepted by `submit` (`jobs_submitted`).
    pub jobs_submitted: Arc<Counter>,
    /// Jobs that ran to completion (`jobs_done`).
    pub jobs_done: Arc<Counter>,
    /// Jobs that failed with an error (`jobs_failed`).
    pub jobs_failed: Arc<Counter>,
    /// Jobs cancelled — queued or mid-run (`jobs_cancelled`).
    pub jobs_cancelled: Arc<Counter>,
    /// Jobs that hit their wall-clock deadline (`jobs_timed_out`).
    pub jobs_timed_out: Arc<Counter>,
    /// Submissions bounced off the full queue (`queue_full_rejects`).
    pub queue_full_rejects: Arc<Counter>,
    /// Jobs currently waiting in the queue (`queue_depth`).
    pub queue_depth: Arc<Gauge>,
    /// Submit-to-start latency per job (`queue_wait_us`).
    pub queue_wait_us: Arc<Histogram>,
    /// Start-to-finish run time per job (`job_run_us`).
    pub job_run_us: Arc<Histogram>,
}

impl ServiceMetrics {
    /// Builds the service's registry and registers every bundle in it.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            pipeline: PipelineMetrics::register(&registry),
            reader: ReaderMetrics::register(&registry),
            jobs_submitted: registry.counter("jobs_submitted"),
            jobs_done: registry.counter("jobs_done"),
            jobs_failed: registry.counter("jobs_failed"),
            jobs_cancelled: registry.counter("jobs_cancelled"),
            jobs_timed_out: registry.counter("jobs_timed_out"),
            queue_full_rejects: registry.counter("queue_full_rejects"),
            queue_depth: registry.gauge("queue_depth"),
            queue_wait_us: registry.latency_histogram("queue_wait_us"),
            job_run_us: registry.latency_histogram("job_run_us"),
            registry,
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Renders a registry snapshot as one JSON object, metric name → value.
///
/// Counters and gauges become integers; histograms become
/// `{"count", "sum", "buckets": [{"le", "n"}, ...]}` with the overflow
/// bucket's bound rendered as the string `"inf"`. Names are sorted, so the
/// rendering is deterministic — the protocol tests rely on that.
pub fn snapshot_json(registry: &MetricsRegistry) -> Json {
    Json::Obj(
        registry
            .snapshot()
            .into_iter()
            .map(|m| {
                let value = match m.value {
                    SnapshotValue::Counter(v) => int(v),
                    SnapshotValue::Gauge(v) => Json::Int(v),
                    SnapshotValue::Histogram {
                        count,
                        sum,
                        buckets,
                    } => Json::obj([
                        ("count", int(count)),
                        ("sum", int(sum)),
                        (
                            "buckets",
                            Json::Arr(
                                buckets
                                    .into_iter()
                                    .map(|(le, n)| {
                                        let le = if le == u64::MAX {
                                            Json::Str("inf".into())
                                        } else {
                                            int(le)
                                        };
                                        Json::obj([("le", le), ("n", int(n))])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                (m.name, value)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_register_without_name_collisions() {
        // A kind collision panics in the registry, so constructing the full
        // bundle is itself the test.
        let metrics = ServiceMetrics::new();
        metrics.jobs_submitted.inc();
        metrics.pipeline.mining.blocks.add(4);
        metrics.reader.chunks_raw.inc();
        let snap = metrics.registry.snapshot();
        assert!(
            snap.len() >= 20,
            "expected the full metric set, got {}",
            snap.len()
        );
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"pipeline_decode_us"), "{names:?}");
        assert!(names.contains(&"pipeline_scan_stall_us"), "{names:?}");
    }

    #[test]
    fn snapshot_renders_every_metric_kind() {
        let metrics = ServiceMetrics::new();
        metrics.jobs_done.add(3);
        metrics.queue_depth.set(2);
        metrics.queue_wait_us.observe(100);
        let json = snapshot_json(&metrics.registry);
        assert_eq!(json.get("jobs_done").and_then(Json::as_i64), Some(3));
        assert_eq!(json.get("queue_depth").and_then(Json::as_i64), Some(2));
        let hist = json.get("queue_wait_us").expect("histogram present");
        assert_eq!(hist.get("count").and_then(Json::as_i64), Some(1));
        assert_eq!(hist.get("sum").and_then(Json::as_i64), Some(100));
        let buckets = hist.get("buckets").and_then(Json::as_arr).expect("buckets");
        assert!(!buckets.is_empty());
        let last = buckets.last().expect("overflow bucket");
        assert_eq!(last.get("le").and_then(Json::as_str), Some("inf"));
        // The wire form parses back.
        let line = json.render_compact();
        assert!(crate::json::parse(&line).is_some(), "unparseable: {line}");
    }
}
