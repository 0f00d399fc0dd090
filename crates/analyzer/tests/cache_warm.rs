//! The analysis cache's contract: a warm run re-analyzes nothing, an
//! edit re-analyzes exactly the touched file, and cached runs produce
//! byte-identical findings to cold runs.

use std::path::PathBuf;

use coldboot_analyzer::{lint_sources_with, LintConfig, LintOptions, SourceFile};

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coldboot-lint-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sources() -> Vec<SourceFile> {
    vec![
        SourceFile {
            path: "crates/a/src/lib.rs".to_string(),
            source: "pub fn ok() -> usize { 1 }\n".to_string(),
        },
        SourceFile {
            path: "crates/a/src/count.rs".to_string(),
            source: "pub fn intern(v: &[u8]) -> u32 { let n = v.len(); n as u32 }\n".to_string(),
        },
        SourceFile {
            path: "crates/b/src/lib.rs".to_string(),
            source: "pub fn fine(x: u64) -> u64 { x + 1 }\n".to_string(),
        },
    ]
}

#[test]
fn warm_run_reanalyzes_nothing_and_edit_reanalyzes_one_file() {
    let dir = temp_cache_dir("basic");
    let config = LintConfig::default();
    let opts = LintOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        check_stale_allows: false,
    };
    let mut files = sources();

    let cold = lint_sources_with(&files, &config, &opts);
    assert_eq!(cold.stats.files, 3);
    assert_eq!(cold.stats.reanalyzed, 3, "cold run analyzes everything");
    assert_eq!(cold.stats.cached, 0);

    let warm = lint_sources_with(&files, &config, &opts);
    assert_eq!(warm.stats.reanalyzed, 0, "warm run must re-parse nothing");
    assert_eq!(warm.stats.cached, 3);
    assert_eq!(
        warm.findings, cold.findings,
        "cached findings must be byte-identical to cold findings"
    );

    // Touch exactly one file: only it is re-analyzed, and its finding is
    // gone while everything else still comes from the cache.
    files[1].source =
        "pub fn intern(v: &[u8]) -> u32 { u32::try_from(v.len()).unwrap_or(u32::MAX) }\n"
            .to_string();
    let after_edit = lint_sources_with(&files, &config, &opts);
    assert_eq!(
        after_edit.stats.reanalyzed, 1,
        "only the edited file re-parses"
    );
    assert_eq!(after_edit.stats.cached, 2);
    assert!(
        after_edit
            .findings
            .iter()
            .all(|f| f.rule != "lossy-len-cast"),
        "{:?}",
        after_edit.findings
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn callee_edit_invalidates_transitive_callers_only() {
    // Call chain A -> B -> C plus an unrelated sibling D. Editing C must
    // re-check C and its transitive callers (B, A) — the edit changes C's
    // summary, which is part of their dependency hash — while D stays
    // cached. The summary phase itself re-extracts only C: summary records
    // key on file content alone.
    let dir = temp_cache_dir("chain");
    let config = LintConfig::default();
    let opts = LintOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        check_stale_allows: false,
    };
    let mut files = vec![
        SourceFile {
            path: "crates/x/src/a.rs".to_string(),
            source: "pub fn top() -> u32 { let n = crate::b::mid(); n as u32 }\n".to_string(),
        },
        SourceFile {
            path: "crates/x/src/b.rs".to_string(),
            source: "pub fn mid() -> usize { crate::c::base_val(&[]) }\n".to_string(),
        },
        SourceFile {
            path: "crates/x/src/c.rs".to_string(),
            source: "pub fn base_val(_buf: &[u8]) -> usize { 4 }\n".to_string(),
        },
        SourceFile {
            path: "crates/x/src/d.rs".to_string(),
            source: "pub fn other() -> usize { 7 }\n".to_string(),
        },
    ];

    let cold = lint_sources_with(&files, &config, &opts);
    assert_eq!(cold.stats.reanalyzed, 4);
    assert!(cold.findings.is_empty(), "{:?}", cold.findings);

    let warm = lint_sources_with(&files, &config, &opts);
    assert_eq!(
        warm.stats.reanalyzed, 0,
        "unchanged tree re-analyzes nothing"
    );
    assert_eq!(warm.stats.cached, 4);
    assert_eq!(warm.stats.summarized, 0);
    assert_eq!(warm.stats.summary_cached, 4);

    // Edit only C so it now returns a length. The new summary ripples
    // through B (`mid` now returns a length) into A, whose `as u32`
    // becomes a helper-mediated lossy cast.
    files[2].source = "pub fn base_val(buf: &[u8]) -> usize { buf.len() }\n".to_string();
    let after = lint_sources_with(&files, &config, &opts);
    assert_eq!(after.stats.summarized, 1, "only C re-extracts facts");
    assert_eq!(after.stats.summary_cached, 3);
    assert_eq!(
        after.stats.reanalyzed, 3,
        "C plus transitive callers B and A re-check: {:?}",
        after.stats
    );
    assert_eq!(after.stats.cached, 1, "sibling D stays cached");
    assert_eq!(after.findings.len(), 1, "{:?}", after.findings);
    assert_eq!(after.findings[0].rule, "lossy-len-cast");
    assert_eq!(after.findings[0].file, "crates/x/src/a.rs");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_invalidates_every_record_exactly_once() {
    // The cache folds `CACHE_VERSION` (and the rule-id list) into every
    // record key, so a version bump — like v2 → v3, which added the
    // spawn/channel/atomic fact lines — lands as a key mismatch on every
    // stored record. Simulate a previous-version cache by rewriting the
    // stored keys: the next run must invalidate and re-analyze everything
    // exactly once, after which a warm run re-analyzes zero files and the
    // findings are unchanged.
    let dir = temp_cache_dir("version");
    let config = LintConfig::default();
    let opts = LintOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        check_stale_allows: false,
    };
    let files = sources();

    let cold = lint_sources_with(&files, &config, &opts);
    assert_eq!(cold.stats.reanalyzed, 3);

    // Stamp every record (.rec and .sum) with a stale key, the observable
    // effect of a cache written by a different CACHE_VERSION.
    let mut stamped = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("record is utf-8");
        let (header, rest) = text.split_once('\n').expect("record has a header");
        let magic = header.split('\t').next().expect("header has a magic");
        std::fs::write(&path, format!("{magic}\t{:016x}\n{rest}", 0u64)).expect("rewrite");
        stamped += 1;
    }
    assert_eq!(stamped, 6, "three .rec plus three .sum records");

    let bumped = lint_sources_with(&files, &config, &opts);
    assert_eq!(
        bumped.stats.reanalyzed, 3,
        "every stale-version record re-analyzes exactly once: {:?}",
        bumped.stats
    );
    assert_eq!(bumped.stats.summarized, 3, "facts re-extract too");
    assert_eq!(bumped.findings, cold.findings);

    let warm = lint_sources_with(&files, &config, &opts);
    assert_eq!(warm.stats.reanalyzed, 0, "fresh records are warm again");
    assert_eq!(warm.stats.summarized, 0);
    assert_eq!(warm.findings, cold.findings);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_disabled_always_reanalyzes() {
    let config = LintConfig::default();
    let opts = LintOptions {
        threads: 1,
        cache_dir: None,
        check_stale_allows: false,
    };
    let files = sources();
    let first = lint_sources_with(&files, &config, &opts);
    let second = lint_sources_with(&files, &config, &opts);
    assert_eq!(first.stats.reanalyzed, 3);
    assert_eq!(second.stats.reanalyzed, 3);
    assert_eq!(second.stats.cached, 0);
}

#[test]
fn parallel_and_sequential_runs_agree() {
    // Determinism across thread counts: the work-stealing fan-out merges
    // results back in file order, so findings are identical.
    let config = LintConfig::default();
    let files = sources();
    let seq = lint_sources_with(
        &files,
        &config,
        &LintOptions {
            threads: 1,
            cache_dir: None,
            check_stale_allows: false,
        },
    );
    let par = lint_sources_with(
        &files,
        &config,
        &LintOptions {
            threads: 8,
            cache_dir: None,
            check_stale_allows: false,
        },
    );
    assert_eq!(seq.findings, par.findings);
}
