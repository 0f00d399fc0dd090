//! Observability tax: mining with metric handles attached vs detached.
//!
//! The metrics layer promises two things the rest of the workspace leans
//! on: a **zero**-cost detached path (every hot loop guards its clock
//! reads and atomics behind `Option` handles) and a bounded attached cost
//! (totals are folded worker-locally and published once per absorbed
//! window, so the per-block path never touches a shared cache line).
//! This bench measures both on the canonical 1 MiB mining workload and
//! writes `BENCH_metrics.json` so CI can track the overhead without
//! scraping output; the pass also asserts the attached run returns
//! byte-identical candidates and stays within the 2% bound.

use std::time::Instant;

use coldboot::dump::MemoryDump;
use coldboot::litmus::{KeyMiner, MiningConfig, MiningMetrics};
use coldboot_bench::workload::{generate_image, WorkloadMix};
use coldboot_dumpio::json::Json;
use coldboot_metrics::{MetricsRegistry, SnapshotValue};
use std::hint::black_box;

const IMAGE_BYTES: usize = 1 << 20;

/// The acceptance bound: attached mining may cost at most this much over
/// the detached baseline on the 1 MiB workload.
const BOUND_PCT: f64 = 2.0;

/// Single-threaded mining isolates the per-block instrumentation cost;
/// with work stealing on, scheduling noise would dwarf a 2% delta.
fn bench_config() -> MiningConfig {
    MiningConfig {
        threads: 1,
        ..MiningConfig::default()
    }
}

fn mine(dump: &MemoryDump, metrics: Option<&MetricsRegistry>) -> usize {
    let mut miner = KeyMiner::new(&bench_config());
    if let Some(registry) = metrics {
        miner = miner.with_metrics(MiningMetrics::register(registry));
    }
    miner.absorb(dump, 0);
    miner.finish().len()
}

/// Best-of-`samples` wall time for one full mining pass: the minimum is
/// the standard noise-robust estimator when the quantity under test is a
/// deterministic amount of work.
fn best_of(samples: usize, mut pass: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut result = 0;
    for _ in 0..samples {
        let start = Instant::now();
        result = black_box(pass());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

fn main() {
    const SAMPLES: usize = 7;
    let image = generate_image(IMAGE_BYTES, WorkloadMix::default(), 3);
    let dump = MemoryDump::new(image, 0);

    // Identity first: the attached run must not change the answer. Counts
    // only in the assert message — candidate bytes never reach a sink.
    let registry = MetricsRegistry::new();
    let detached_candidates = {
        let mut miner = KeyMiner::new(&bench_config());
        miner.absorb(&dump, 0);
        miner.finish()
    };
    let attached_candidates = {
        let mut miner =
            KeyMiner::new(&bench_config()).with_metrics(MiningMetrics::register(&registry));
        miner.absorb(&dump, 0);
        miner.finish()
    };
    assert!(
        detached_candidates == attached_candidates,
        "attached mining diverged: {} vs {} candidates",
        detached_candidates.len(),
        attached_candidates.len(),
    );
    let mined_blocks = registry
        .snapshot()
        .into_iter()
        .find(|m| m.name == "mine_blocks")
        .map(|m| match m.value {
            SnapshotValue::Counter(v) => v,
            _ => 0,
        })
        .unwrap_or(0);
    assert_eq!(
        mined_blocks as usize,
        IMAGE_BYTES / 64,
        "attached run must count every block exactly once"
    );

    // Warm up once (page in the image, settle the branch predictors),
    // then take the best of SAMPLES passes each way.
    mine(&dump, None);
    let (detached_s, detached_n) = best_of(SAMPLES, || mine(&dump, None));
    let report_registry = MetricsRegistry::new();
    let (attached_s, attached_n) = best_of(SAMPLES, || mine(&dump, Some(&report_registry)));
    assert_eq!(
        detached_n, attached_n,
        "candidate count moved between passes"
    );

    let overhead_pct = (attached_s / detached_s.max(1e-9) - 1.0) * 100.0;
    let doc = Json::obj([
        ("bench", Json::Str("metrics_overhead".into())),
        ("image_bytes", Json::Int(IMAGE_BYTES as i64)),
        ("samples", Json::Int(SAMPLES as i64)),
        ("candidates", Json::Int(detached_n as i64)),
        ("detached_ms", Json::Num(detached_s * 1e3)),
        ("attached_ms", Json::Num(attached_s * 1e3)),
        ("overhead_pct", Json::Num(overhead_pct)),
        ("bound_pct", Json::Num(BOUND_PCT)),
        ("within_bound", Json::Bool(overhead_pct <= BOUND_PCT)),
    ]);
    if let Err(e) = coldboot_bench::history::record("metrics", &doc) {
        eprintln!("could not write BENCH_metrics.json: {e}");
    } else {
        println!("wrote BENCH_metrics.json (+ BENCH_history.jsonl)");
    }
    assert!(
        overhead_pct <= BOUND_PCT,
        "attached mining overhead {overhead_pct:.2}% exceeds the {BOUND_PCT}% bound \
         ({:.2} ms detached vs {:.2} ms attached)",
        detached_s * 1e3,
        attached_s * 1e3,
    );
}
