//! Tier-1 CI gate: the workspace must be clean under `coldboot-lint`.
//!
//! Runs the in-tree analyzer (crates/analyzer) — token rules, the
//! AST/dataflow rules (`lossy-len-cast` and `secret-taint`, which resolve
//! the sites the one summary evaluator records against the
//! interprocedural fixpoint, plus `unbounded-loop`, `untimed-io` and
//! `lock-order`) and the v4 concurrency families on the thread-role
//! graph (`atomic-ordering`, `blocking-in-event-loop`,
//! `channel-deadlock`, `join-leak`) — over every `.rs` file in the
//! repository with the checked-in `lint.toml` allowlist, in the strict
//! mode the CLI's `--deny` maps to: any finding fails, and stale
//! `lint.toml` allow entries count as findings too. Seeding a violation —
//! e.g. `println!("{:?}", round_key)` in crates/crypto, `data.len() as
//! u32` in the dumpio writer, deleting the dumpd `ErrorKind::Interrupted`
//! retry arm, or a `thread::sleep` in the cluster event loop — makes this
//! test fail with the offending file, line, and rule in the message.

use coldboot_analyzer::{
    lint_sources, lint_workspace_with, load_config, render_sarif, render_text, LintConfig,
    LintOptions, SourceFile, RULE_IDS,
};
use std::path::Path;

#[test]
fn workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = load_config(root).expect("lint.toml parses");
    let opts = LintOptions {
        threads: 0,
        cache_dir: None, // always exercise the full analysis in CI
        check_stale_allows: true,
    };
    let run = lint_workspace_with(root, &config, &opts).expect("workspace sources are readable");
    // Publish the machine-readable report for CI annotation regardless of
    // outcome; a clean run writes a SARIF log with zero results.
    let sarif_path = root.join("target").join("lint.sarif");
    if let Some(dir) = sarif_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&sarif_path, render_sarif(&run.findings)).expect("write target/lint.sarif");
    assert!(
        run.findings.is_empty(),
        "coldboot-lint found {} issue(s):\n{}",
        run.findings.len(),
        render_text(&run.findings)
    );
}

#[test]
fn gate_denies_the_concurrency_families() {
    // The four v4 families are registered (so `--deny` and this gate
    // police them) and actually fire: a seeded sleep-under-event-loop
    // violation must produce exactly the new rule, proving the gate's
    // clean pass above is an actual check, not a missing pass.
    for family in [
        "atomic-ordering",
        "blocking-in-event-loop",
        "channel-deadlock",
        "join-leak",
    ] {
        assert!(RULE_IDS.contains(&family), "{family} not registered");
    }
    let seeded = vec![SourceFile {
        path: "crates/cluster/src/seeded.rs".to_string(),
        source: "use std::thread;\n\
                 use std::time::Duration;\n\
                 pub fn start_event_loop() -> thread::JoinHandle<()> {\n\
                 \x20   thread::spawn(|| poll())\n\
                 }\n\
                 fn poll() {\n\
                 \x20   thread::sleep(Duration::from_millis(1));\n\
                 }\n"
        .to_string(),
    }];
    let findings = lint_sources(&seeded, &LintConfig::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "blocking-in-event-loop");
    assert_eq!(findings[0].line, 7);
}

#[test]
fn warm_cache_run_reanalyzes_nothing() {
    // The incremental contract over the real workspace: after one run has
    // populated a cache, an unchanged workspace re-parses zero files and
    // reports the identical (empty) finding set.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = load_config(root).expect("lint.toml parses");
    let cache_dir =
        std::env::temp_dir().join(format!("coldboot-lint-gate-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let opts = LintOptions {
        threads: 0,
        cache_dir: Some(cache_dir.clone()),
        check_stale_allows: true,
    };
    let cold = lint_workspace_with(root, &config, &opts).expect("cold run");
    let warm = lint_workspace_with(root, &config, &opts).expect("warm run");
    assert_eq!(warm.stats.files, cold.stats.files);
    assert_eq!(
        warm.stats.reanalyzed, 0,
        "warm run over an unchanged workspace must re-parse nothing \
         ({} of {} files re-analyzed)",
        warm.stats.reanalyzed, warm.stats.files
    );
    assert_eq!(warm.findings, cold.findings);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
