//! Hand-rolled observability primitives for the cold boot toolkit.
//!
//! The paper's attack economics are all measured rates — hours-per-GB scan
//! times, mining throughput, decay budgets — yet a pipeline that runs
//! blind cannot tell *why* a job is slow or stuck. This crate is the
//! workspace's no-new-deps answer (the same discipline as
//! `coldboot-dumpio`'s hand-rolled JSON): a [`MetricsRegistry`] of atomic
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s, plus
//! lightweight [`Span`] timers for pipeline stages.
//!
//! Design constraints, in priority order:
//!
//! * **Zero cost when detached.** Instrumented code holds
//!   `Option<Arc<…>>` handles; every observation site is a no-op (not
//!   even a clock read — see [`Span::start`]) when no registry is
//!   attached.
//! * **No locks on hot paths.** Handles are plain atomics updated with
//!   `Ordering::Relaxed`; the registry's mutex is touched only at
//!   registration and snapshot time.
//! * **Counts and durations only.** Metrics must never capture key
//!   material or other image-derived bytes; the registry stores names and
//!   numbers, nothing else, and `coldboot-lint` polices the call sites.
//!
//! Observations are fire-and-forget; reads ([`MetricsRegistry::snapshot`])
//! are racy-but-coherent per metric, which is all a stats endpoint needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, in-flight jobs).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Moves the level up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves the level down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket bounds, in microseconds: powers of four from
/// 1 µs to ~67 s. Fourteen buckets plus overflow cover everything from a
/// single litmus batch to a whole-dump pass without tuning.
pub const LATENCY_US_BOUNDS: [u64; 14] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
    67_108_864,
];

/// A fixed-bucket histogram: cumulative-free per-bucket counts plus a
/// total count and sum, all atomics.
///
/// Bucket `i` counts observations `v <= bounds[i]` (and greater than the
/// previous bound); one extra overflow bucket catches the rest. Bounds are
/// fixed at construction, so [`Histogram::observe`] is a binary search
/// plus three relaxed atomic adds — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds. Bounds are
    /// sorted and deduplicated, so any list is accepted.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// A histogram with the default latency bounds
    /// ([`LATENCY_US_BOUNDS`]); observe microseconds into it.
    pub fn latency_us() -> Self {
        Self::with_bounds(&LATENCY_US_BOUNDS)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(inclusive upper bound, count)` per bucket; the final entry uses
    /// `u64::MAX` as its bound (the overflow bucket).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, bucket) in self.buckets.iter().enumerate() {
            let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, bucket.load(Ordering::Relaxed)));
        }
        out
    }
}

/// A scope timer: started against an optional histogram, records elapsed
/// microseconds on drop.
///
/// The zero-cost-when-detached contract lives here: `Span::start(None)`
/// neither reads the clock nor does anything on drop, so instrumented
/// code can bracket a stage unconditionally.
#[derive(Debug)]
pub struct Span<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl<'a> Span<'a> {
    /// Starts timing when `hist` is attached; otherwise a no-op span.
    #[inline]
    pub fn start(hist: Option<&'a Histogram>) -> Self {
        Self {
            target: hist.map(|h| (h, Instant::now())),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.target.take() {
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            hist.observe(us);
        }
    }
}

/// A registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric's point-in-time value, as read by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: String,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram's count, sum, and `(upper bound, count)` buckets
    /// (final bound `u64::MAX` = overflow).
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Per-bucket `(inclusive upper bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// A named collection of metrics with get-or-register semantics.
///
/// The registry is the *cold* side of the design: its mutex is taken at
/// registration (once per metric, typically at service start) and at
/// snapshot time, never per observation — observation sites hold the
/// returned `Arc` handles and touch only atomics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry<T, F, G>(&self, name: &str, find: F, make: G) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<Arc<T>>,
        G: FnOnce() -> (Arc<T>, Metric),
    {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, metric)) = entries.iter().find(|(n, _)| n == name) {
            if let Some(found) = find(metric) {
                return found;
            }
            // Registering one name as two metric kinds is a programming
            // error in the instrumentation layer, not a runtime condition
            // to recover from.
            // lint:allow(panic): kind collision is a programming error
            panic!("metric {name:?} already registered with a different kind");
        }
        let (handle, metric) = make();
        entries.push((name.to_string(), metric));
        handle
    }

    /// Returns the counter registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.entry(
            name,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// Returns the gauge registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.entry(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bounds if new (an existing histogram keeps its bounds).
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another metric kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.entry(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::with_bounds(bounds));
                (Arc::clone(&h), Metric::Histogram(h))
            },
        )
    }

    /// A histogram with the default latency bucket layout
    /// ([`LATENCY_US_BOUNDS`]).
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &LATENCY_US_BOUNDS)
    }

    /// Reads every registered metric, sorted by name for deterministic
    /// rendering.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut out: Vec<MetricSnapshot> = entries
            .iter()
            .map(|(name, metric)| MetricSnapshot {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), -2);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_partition_values() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 5000, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 10121);
        assert_eq!(
            h.buckets(),
            vec![(10, 2), (100, 2), (1000, 0), (u64::MAX, 2)]
        );
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let h = Histogram::with_bounds(&[100, 10, 100]);
        h.observe(50);
        assert_eq!(h.buckets(), vec![(10, 0), (100, 1), (u64::MAX, 0)]);
    }

    #[test]
    fn span_records_into_histogram_only_when_attached() {
        let h = Histogram::latency_us();
        {
            let _s = Span::start(Some(&h));
        }
        assert_eq!(h.count(), 1);
        {
            let _s = Span::start(None);
        }
        assert_eq!(h.count(), 1, "detached span must not record");
    }

    #[test]
    fn registry_get_or_register_shares_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("scanned");
        let b = r.counter("scanned");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("scanned").get(), 3);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn registry_kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("depth");
        let r = std::panic::AssertUnwindSafe(r);
        let err = std::panic::catch_unwind(|| r.gauge("depth"));
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = MetricsRegistry::new();
        r.gauge("b_depth").set(4);
        r.counter("a_total").add(7);
        r.latency_histogram("c_wait_us").observe(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_depth", "c_wait_us"]);
        assert_eq!(snap[0].value, SnapshotValue::Counter(7));
        assert_eq!(snap[1].value, SnapshotValue::Gauge(4));
        match &snap[2].value {
            SnapshotValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!((*count, *sum), (1, 100));
                assert_eq!(buckets.len(), LATENCY_US_BOUNDS.len() + 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_observations_all_land() {
        let r = MetricsRegistry::new();
        let c = r.counter("events");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
