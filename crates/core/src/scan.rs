//! Work-stealing scan engine shared by every dump-wide pass.
//!
//! The paper's §III-C throughput story — ~100 MB of dump scanned per ~2
//! hours *per core*, embarrassingly parallel across cores — only holds if
//! the scan actually keeps every core busy. Static `chunks()` partitioning
//! does not: litmus hits cluster (schedules, zero pools, and key pools are
//! spatially contiguous), so a worker whose chunk happens to hold the
//! expensive blocks finishes last while the others idle.
//!
//! This module is the shared alternative: items (block indices) are grouped
//! into fixed-size **batches** claimed off a single atomic cursor, so a
//! worker that drew cheap batches simply comes back for more. Two
//! properties make the engine safe to drop into every pipeline stage:
//!
//! * **Determinism.** Workers tag each batch's output with its batch index
//!   and the results are merged in batch order after the scan, so
//!   [`scan_collect`] returns *byte-identical, identically-ordered* results
//!   for any thread count — `threads: 1` and `threads: 64` are
//!   indistinguishable to the caller. ([`scan_fold`] instead requires a
//!   commutative + associative merge; see its docs.)
//! * **No work splits mid-batch.** A batch is the atomic unit of stealing;
//!   per-item closures never observe concurrent mutation and need no locks.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coldboot_metrics::{duration_us, Counter, MetricsRegistry};

/// Default number of items a worker claims per cursor increment.
///
/// Large enough that the shared-cursor `fetch_add` is noise even for cheap
/// per-item work (a 64-byte litmus test), small enough that skewed dumps
/// still rebalance: 1 GiB of blocks is ~16 million items ≈ 65 thousand
/// batches.
pub const DEFAULT_BATCH_ITEMS: usize = 256;

/// The number of worker threads the machine supports, used as the default
/// parallelism everywhere (`SearchConfig::threads`, `MiningConfig::threads`).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine-level observability handles, one bundle per pipeline stage.
///
/// Counter names are prefixed with the stage (`mine_scan_batches`,
/// `search_scan_items`, …) so one registry can hold every stage of an
/// attack side by side. `busy_us` is wall time workers spent inside batch
/// bodies; `idle_us` is the remainder of `threads × scan wall time` — the
/// skew the work-stealing cursor exists to minimise. Detached (the
/// default), the engine takes no clock readings at all.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Batches claimed off the shared cursor.
    pub batches: Arc<Counter>,
    /// Items visited (one litmus block, one search position, …).
    pub items: Arc<Counter>,
    /// Microseconds of worker time spent executing batch bodies.
    pub busy_us: Arc<Counter>,
    /// Microseconds of worker wall-clock not covered by batch bodies.
    pub idle_us: Arc<Counter>,
}

impl EngineMetrics {
    /// Registers (or re-attaches to) the four engine counters under
    /// `{stage}_scan_*` in `registry`.
    pub fn register(registry: &MetricsRegistry, stage: &str) -> Arc<Self> {
        Arc::new(Self {
            batches: registry.counter(&format!("{stage}_scan_batches")),
            items: registry.counter(&format!("{stage}_scan_items")),
            busy_us: registry.counter(&format!("{stage}_scan_busy_us")),
            idle_us: registry.counter(&format!("{stage}_scan_idle_us")),
        })
    }

    fn record(&self, stats: WorkerStats, idle: Duration) {
        self.batches.add(stats.batches);
        self.items.add(stats.items);
        self.busy_us.add(duration_us(stats.busy));
        self.idle_us.add(duration_us(idle));
    }
}

/// Per-worker tallies, summed after the join. Counting is unconditional
/// (two integer adds per batch); *timing* only happens when a metrics
/// bundle is attached.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    batches: u64,
    items: u64,
    busy: Duration,
}

impl WorkerStats {
    fn merge(mut self, other: WorkerStats) -> WorkerStats {
        self.batches += other.batches;
        self.items += other.items;
        self.busy += other.busy;
        self
    }
}

/// Scheduling knobs for one engine pass.
///
/// Equality ignores the metrics handle — two option sets that scan the
/// same way compare equal whether or not one of them is observed.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Worker threads; `1` runs inline on the caller's thread (the
    /// determinism escape hatch — though output is identical either way).
    pub threads: usize,
    /// Items per stolen batch (see [`DEFAULT_BATCH_ITEMS`]).
    pub batch_items: usize,
    /// Optional engine counters; `None` (the default) makes every
    /// observation site a no-op.
    pub metrics: Option<Arc<EngineMetrics>>,
}

impl PartialEq for ScanOptions {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.batch_items == other.batch_items
    }
}

impl Eq for ScanOptions {}

impl ScanOptions {
    /// Options with an explicit thread count and the default batch size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            batch_items: DEFAULT_BATCH_ITEMS,
            metrics: None,
        }
    }

    /// Overrides the batch size (use smaller batches when per-item work is
    /// heavy, e.g. a block × 4096-candidate AES litmus sweep).
    pub fn batch_items(mut self, batch_items: usize) -> Self {
        self.batch_items = batch_items.max(1);
        self
    }

    /// Attaches engine counters; scan results are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl Default for ScanOptions {
    /// All available cores, default batch size.
    fn default() -> Self {
        Self::with_threads(default_threads())
    }
}

/// The engine's one loop. Below two threads, `body` runs once over every
/// item on the caller's thread. Otherwise `threads` scoped workers each
/// start from `init()`, claim batches off a shared cursor and run
/// `body(&mut state, batch_index, batch_items)` on each, and the worker
/// states come back in spawn order. Batches, items, busy and idle time
/// are recorded when `opts` carries metrics.
fn drive<S, I, B>(items: usize, opts: &ScanOptions, init: I, body: B) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    B: Fn(&mut S, usize, Range<usize>) + Sync,
{
    let batch = opts.batch_items.max(1);
    let n_batches = items.div_ceil(batch);
    let threads = opts.threads.max(1).min(n_batches.max(1));
    let metrics = opts.metrics.as_deref();
    if threads <= 1 {
        let started = metrics.map(|_| Instant::now());
        let mut state = init();
        body(&mut state, 0, 0..items);
        if let Some((m, started)) = metrics.zip(started) {
            let stats = WorkerStats {
                batches: n_batches as u64,
                items: items as u64,
                busy: started.elapsed(),
            };
            m.record(stats, Duration::ZERO);
        }
        return vec![state];
    }

    let cursor = AtomicUsize::new(0);
    let run_worker = || {
        let mut state = init();
        let mut stats = WorkerStats::default();
        loop {
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= n_batches {
                break;
            }
            let start = b * batch;
            let end = (start + batch).min(items);
            let batch_started = metrics.map(|_| Instant::now());
            body(&mut state, b, start..end);
            stats.batches += 1;
            stats.items += (end - start) as u64;
            if let Some(batch_started) = batch_started {
                stats.busy += batch_started.elapsed();
            }
        }
        (state, stats)
    };

    let wall_started = metrics.map(|_| Instant::now());
    let (states, stats): (Vec<S>, WorkerStats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(|| run_worker())).collect();
        let mut states = Vec::with_capacity(threads);
        let mut stats = WorkerStats::default();
        for h in handles {
            // lint:allow(panic): join() errs only if a worker panicked; re-raise
            let (state, worker_stats) = h.join().expect("scan worker panicked");
            states.push(state);
            stats = stats.merge(worker_stats);
        }
        (states, stats)
    });
    if let Some((m, wall_started)) = metrics.zip(wall_started) {
        let idle = (wall_started.elapsed() * threads as u32).saturating_sub(stats.busy);
        m.record(stats, idle);
    }
    states
}

/// Runs `emit(item_index, &mut out)` for every item in `0..items` and
/// returns the concatenated output **in item order**, regardless of thread
/// count.
///
/// `emit` may push zero or more results per item; it must be deterministic
/// in its item index (it runs exactly once per item, but on an arbitrary
/// worker). The engine merges worker-local buffers by batch index, so the
/// returned `Vec` is byte-identical to a sequential run.
pub fn scan_collect<T, F>(items: usize, opts: &ScanOptions, emit: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Vec<T>) + Sync,
{
    let states = drive(items, opts, Vec::new, |tagged, b, batch_items| {
        let mut buf = Vec::new();
        for i in batch_items {
            emit(i, &mut buf);
        }
        if !buf.is_empty() {
            tagged.push((b, buf));
        }
    });
    // Deterministic merge: batch order == item order.
    let mut tagged: Vec<(usize, Vec<T>)> = states.into_iter().flatten().collect();
    if tagged.len() == 1 {
        return tagged.pop().map(|(_, buf)| buf).unwrap_or_default();
    }
    tagged.sort_unstable_by_key(|(b, _)| *b);
    let total = tagged.iter().map(|(_, buf)| buf.len()).sum();
    let mut out = Vec::with_capacity(total);
    for (_, buf) in tagged {
        out.extend(buf);
    }
    out
}

/// Folds every item into a worker-local accumulator, then merges the
/// worker accumulators.
///
/// Batch-to-worker assignment is racy, so the overall result is
/// deterministic **only when `merge` is commutative and associative** (and
/// `fold` order-independent) — counting, summing, min/max, and histogram
/// union all qualify. For order-sensitive output use [`scan_collect`].
pub fn scan_fold<A, I, F, M>(items: usize, opts: &ScanOptions, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
    M: Fn(A, A) -> A,
{
    let states = drive(items, opts, init, |acc, _, batch_items| {
        for i in batch_items {
            fold(acc, i);
        }
    });
    let mut accs = states.into_iter();
    // lint:allow(panic): the driver returns at least one worker state
    let first = accs.next().expect("at least one worker");
    accs.fold(first, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_preserves_item_order_across_thread_counts() {
        // Skewed emission: late items emit many results, early items none —
        // the shape that made static chunking both slow and easy to get
        // out of order.
        let emit = |i: usize, out: &mut Vec<(usize, usize)>| {
            for k in 0..i % 5 {
                out.push((i, k));
            }
        };
        let seq = scan_collect(1000, &ScanOptions::with_threads(1).batch_items(7), emit);
        for threads in [2, 3, 8] {
            let par = scan_collect(
                1000,
                &ScanOptions::with_threads(threads).batch_items(7),
                emit,
            );
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn collect_handles_edge_sizes() {
        let emit = |i: usize, out: &mut Vec<usize>| out.push(i * 3);
        assert!(scan_collect(0, &ScanOptions::default(), emit).is_empty());
        // Fewer items than one batch, and fewer batches than threads.
        let opts = ScanOptions::with_threads(16).batch_items(64);
        assert_eq!(scan_collect(3, &opts, emit), vec![0, 3, 6]);
        // items an exact multiple of the batch size.
        let opts = ScanOptions::with_threads(4).batch_items(5);
        assert_eq!(scan_collect(10, &opts, emit).len(), 10);
    }

    #[test]
    fn fold_counts_match_sequential() {
        let fold = |acc: &mut u64, i: usize| *acc += i as u64;
        let want: u64 = (0..10_000).sum();
        for threads in [1usize, 2, 8] {
            let got = scan_fold(
                10_000,
                &ScanOptions::with_threads(threads).batch_items(13),
                || 0u64,
                fold,
                |a, b| a + b,
            );
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn options_clamp_degenerate_values() {
        let opts = ScanOptions::with_threads(0).batch_items(0);
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.batch_items, 1);
        // And the engine itself tolerates a raw zero without panicking.
        let raw = ScanOptions {
            threads: 0,
            batch_items: 0,
            metrics: None,
        };
        assert_eq!(
            scan_collect(4, &raw, |i, out: &mut Vec<usize>| out.push(i)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn options_equality_ignores_metrics() {
        let registry = MetricsRegistry::new();
        let observed =
            ScanOptions::with_threads(2).with_metrics(EngineMetrics::register(&registry, "test"));
        assert_eq!(observed, ScanOptions::with_threads(2));
        assert_ne!(observed, ScanOptions::with_threads(3));
    }

    #[test]
    fn engine_counters_account_for_every_item() {
        let registry = MetricsRegistry::new();
        for (stage, threads) in [("inline", 1usize), ("stolen", 4)] {
            let metrics = EngineMetrics::register(&registry, stage);
            let opts = ScanOptions::with_threads(threads)
                .batch_items(7)
                .with_metrics(Arc::clone(&metrics));
            let collected = scan_collect(100, &opts, |i, out: &mut Vec<usize>| out.push(i));
            assert_eq!(collected.len(), 100);
            assert_eq!(metrics.items.get(), 100, "stage={stage}");
            assert_eq!(metrics.batches.get(), 100usize.div_ceil(7) as u64);
            let folded = scan_fold(50, &opts, || 0u64, |a, _| *a += 1, |a, b| a + b);
            assert_eq!(folded, 50);
            assert_eq!(metrics.items.get(), 150, "fold adds to the same bundle");
        }
        // The registry saw both stages' counter sets.
        assert_eq!(registry.snapshot().len(), 8);
    }

    #[test]
    fn metrics_attached_output_is_identical() {
        let registry = MetricsRegistry::new();
        let emit = |i: usize, out: &mut Vec<(usize, usize)>| {
            for k in 0..i % 3 {
                out.push((i, k));
            }
        };
        let plain = scan_collect(500, &ScanOptions::with_threads(4).batch_items(9), emit);
        let observed = scan_collect(
            500,
            &ScanOptions::with_threads(4)
                .batch_items(9)
                .with_metrics(EngineMetrics::register(&registry, "ident")),
            emit,
        );
        assert_eq!(plain, observed);
    }
}
