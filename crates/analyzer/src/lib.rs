//! `coldboot-analyzer` — secret-hygiene static analysis for the cold-boot
//! reproduction workspace.
//!
//! The paper's whole premise is that key material (scrambler keystreams,
//! AES round-key schedules, XTS master keys) leaks when it touches memory
//! in recoverable form. A reproduction that `Debug`-prints a round key,
//! compares key bytes with early-exit `==`, or leaves master keys
//! un-zeroized on drop undermines its own threat model. This crate
//! enforces those properties mechanically: a hand-rolled lexer feeds a
//! rule engine that walks every `.rs` file in the workspace, and
//! `tests/lint_gate.rs` at the workspace root turns the result into a CI
//! gate.
//!
//! Token-level rules: `secret-print`, `secret-debug`, `zeroize-drop`,
//! `const-time`, `forbid-unsafe`, `truncating-cast`, `panic`, plus the
//! `suppression` meta-rule policing `// lint:allow(rule): reason`
//! annotations. Syntax-aware dataflow rules (on the hand-rolled AST in
//! [`ast`]): `lossy-len-cast`, `unbounded-loop`, `untimed-io`,
//! `lock-order`, `secret-taint`, plus the `stale-allow` meta-rule over
//! `lint.toml`. Concurrency rules on the thread-role graph ([`threads`]):
//! `atomic-ordering`, `blocking-in-event-loop`, `channel-deadlock`,
//! `join-leak`. See DESIGN.md ("Static analysis") for each rule's paper
//! rationale.
//!
//! The per-file analysis fans out over a work-stealing thread pool and is
//! memoized in a content-hash cache (`target/lint-cache`), so warm runs
//! re-analyze only changed files. Output renders as text, JSON, or SARIF
//! 2.1.0 ([`sarif`]).
//!
//! The crate is deliberately std-only so the gate runs in offline build
//! environments.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cache;
mod callgraph;
mod concurrency;
pub mod config;
mod dataflow;
pub mod diag;
pub mod engine;
pub mod lexer;
mod locks;
pub mod sarif;
pub mod secrets;
mod summaries;
mod threads;
pub mod walk;

pub use cache::LintCache;
pub use config::LintConfig;
pub use diag::{
    render_json, render_text, rule_explanation, Baseline, Finding, RULE_DESCRIPTIONS, RULE_IDS,
};
pub use engine::{
    concurrency_findings, lint_sources, lint_sources_with, summarize_sources, LintOptions, LintRun,
    RunStats, SourceFile, SummaryRun,
};
pub use sarif::render_sarif;
pub use summaries::SummaryStats;

use std::io;
use std::path::Path;

/// Lints every `.rs` file under `root` against `config` with default
/// options. This is the stable simple entry point; [`lint_workspace_with`]
/// exposes threads, caching, and stale-allow checking.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> io::Result<Vec<Finding>> {
    Ok(lint_workspace_with(root, config, &LintOptions::default())?.findings)
}

/// Lints every `.rs` file under `root` against `config` under `opts`.
/// This is the entry point both the `coldboot-lint` binary and the
/// workspace lint gate use.
pub fn lint_workspace_with(
    root: &Path,
    config: &LintConfig,
    opts: &LintOptions,
) -> io::Result<LintRun> {
    let sources = walk::collect_sources(root)?;
    Ok(engine::lint_sources_with(&sources, config, opts))
}

/// Loads `lint.toml` from `root` if present; a missing file is an empty
/// allowlist, a malformed one is an error.
pub fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => LintConfig::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LintConfig::default()),
        Err(e) => Err(format!("failed to read {}: {e}", path.display())),
    }
}
