//! Analyzer throughput: cold vs warm cache, sequential vs parallel.
//!
//! `coldboot-lint` gates tier-1 CI, so its latency is paid on every push;
//! this bench keeps the two optimisations that make that affordable
//! honest. The work-stealing file fan-out must beat a sequential sweep on
//! the real workspace, and the content-hash cache must make a warm run of
//! an unchanged tree nearly free (it re-analyzes nothing — the warm gate
//! test asserts the zero, this bench tracks the wall-clock payoff). The
//! v3 interprocedural pass adds a summary phase (fact extraction plus the
//! call-graph fixpoint) ahead of the checks; its cold and warm cost is
//! measured separately so the overhead of going cross-function stays
//! visible. The v4 concurrency pass (thread-role graph plus the four
//! concurrency rule families) runs on top of the same summaries; its
//! standalone cost is tracked too so role-graph growth shows up in the
//! history rather than hiding inside the cold totals. Emits
//! `BENCH_lint.json` (and appends to `BENCH_history.jsonl`) so CI can
//! chart the ratios without scraping output.

use std::path::{Path, PathBuf};
use std::time::Instant;

use coldboot_analyzer::{
    concurrency_findings, lint_workspace_with, load_config, summarize_sources,
    walk::collect_sources, LintConfig, LintOptions, RunStats,
};
use coldboot_bench::{history, report::Json};
use std::hint::black_box;

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn options(threads: usize, cache_dir: Option<PathBuf>) -> LintOptions {
    LintOptions {
        threads,
        cache_dir,
        // The CI gate runs with stale-allow checking on; match it so the
        // measured work is the gate's work.
        check_stale_allows: true,
    }
}

fn lint_once(root: &Path, config: &LintConfig, opts: &LintOptions) -> RunStats {
    match lint_workspace_with(root, config, opts) {
        Ok(run) => run.stats,
        Err(e) => panic!("workspace sources are readable: {e}"),
    }
}

fn scratch_cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("coldboot-lint-bench-{}", std::process::id()))
}

/// Best-of-`samples` wall time: the analysis is a deterministic amount of
/// work, so the minimum is the noise-robust estimator (same rationale as
/// the metrics-overhead report).
fn best_of(samples: usize, mut pass: impl FnMut() -> RunStats) -> (f64, RunStats) {
    let mut best = f64::INFINITY;
    let mut stats = RunStats::default();
    for _ in 0..samples {
        let start = Instant::now();
        stats = black_box(pass());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, stats)
}

fn main() {
    const SAMPLES: usize = 5;
    let root = workspace_root();
    let config = match load_config(&root) {
        Ok(config) => config,
        Err(e) => panic!("lint.toml parses: {e}"),
    };

    let seq_opts = options(1, None);
    let par_opts = options(0, None);
    let (cold_seq_s, seq_stats) = best_of(SAMPLES, || lint_once(&root, &config, &seq_opts));
    let (cold_par_s, par_stats) = best_of(SAMPLES, || lint_once(&root, &config, &par_opts));
    assert_eq!(
        seq_stats.files, par_stats.files,
        "sequential and parallel sweeps must cover the same file set"
    );

    let cache_dir = scratch_cache_dir();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let warm_opts = options(0, Some(cache_dir.clone()));
    lint_once(&root, &config, &warm_opts); // populate the cache
    let (warm_s, warm_stats) = best_of(SAMPLES, || lint_once(&root, &config, &warm_opts));
    assert_eq!(
        warm_stats.reanalyzed, 0,
        "warm run over an unchanged workspace must re-analyze nothing"
    );

    // The interprocedural summary phase in isolation: cold (extract every
    // file's facts, then fixpoint) and warm (facts from the cache, the
    // fixpoint always re-runs — it is global and cheap).
    let files = match collect_sources(&root) {
        Ok(files) => files,
        Err(e) => panic!("workspace sources are readable: {e}"),
    };
    let mut summary_fns = 0usize;
    let (summary_cold_s, _) = best_of(SAMPLES, || {
        let run = summarize_sources(&files, &options(0, None));
        summary_fns = run.stats.fns;
        RunStats::default()
    });
    let (summary_warm_s, _) = best_of(SAMPLES, || {
        let run = summarize_sources(&files, &warm_opts);
        assert_eq!(run.summarized, 0, "summary cache must be warm here");
        RunStats::default()
    });

    // The v4 concurrency pass in isolation: summary phase plus the
    // thread-role graph and the four concurrency rule families. Measured
    // against the warm summary cache so the delta over `summary_warm_ms`
    // is the role-graph + rule cost itself. The workspace is triaged
    // clean, so the finding count doubles as a gate sanity check.
    let mut concurrency_count = 0usize;
    let (concurrency_s, _) = best_of(SAMPLES, || {
        concurrency_count = concurrency_findings(&files, &warm_opts).len();
        RunStats::default()
    });
    let _ = std::fs::remove_dir_all(&cache_dir);

    let doc = Json::obj([
        ("bench", Json::Str("lint_throughput".into())),
        ("files", Json::Int(seq_stats.files as i64)),
        ("samples", Json::Int(SAMPLES as i64)),
        ("cold_sequential_ms", Json::Num(cold_seq_s * 1e3)),
        ("cold_parallel_ms", Json::Num(cold_par_s * 1e3)),
        ("warm_cache_ms", Json::Num(warm_s * 1e3)),
        (
            "parallel_speedup",
            Json::Num(cold_seq_s / cold_par_s.max(1e-9)),
        ),
        ("warm_speedup", Json::Num(cold_par_s / warm_s.max(1e-9))),
        ("warm_reanalyzed", Json::Int(warm_stats.reanalyzed as i64)),
        ("summary_fns", Json::Int(summary_fns as i64)),
        ("summary_cold_ms", Json::Num(summary_cold_s * 1e3)),
        ("summary_warm_ms", Json::Num(summary_warm_s * 1e3)),
        ("concurrency_pass_ms", Json::Num(concurrency_s * 1e3)),
        ("concurrency_findings", Json::Int(concurrency_count as i64)),
    ]);
    if let Err(e) = history::record("lint", &doc) {
        eprintln!("could not write BENCH_lint.json: {e}");
    } else {
        println!("wrote BENCH_lint.json (+ BENCH_history.jsonl)");
    }
}
