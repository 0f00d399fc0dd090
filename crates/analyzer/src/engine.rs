//! The rule engine: classifies files, runs the per-file rules (token-level
//! and AST/dataflow) over each source, merges per-file facts into the
//! workspace passes (zeroize-drop, lock-order cycles, stale-allow), and
//! applies inline suppressions plus the `lint.toml` allowlist.
//!
//! Per-file work fans out over a work-stealing thread pool (an atomic
//! cursor hands out batches; results merge back in deterministic file
//! order — the same shape as `coldboot_core::scan`'s engine, hand-rolled
//! here on `std::thread::scope` to keep this crate dependency-free) and
//! is memoized in a content-hash cache so warm runs re-analyze only
//! changed files.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::ast;
use crate::cache::LintCache;
use crate::callgraph::CallGraph;
use crate::config::LintConfig;
use crate::dataflow;
use crate::diag::Finding;
use crate::lexer::{self, Comment, Token, TokenKind};
use crate::locks::{self, LockEdge};
use crate::secrets;
use crate::summaries::{self, FnFact, Sites, SummaryCtx, SummaryStats};

/// An in-memory source file with its workspace-relative path
/// (`/`-separated), the unit the engine operates on. [`crate::lint_workspace`]
/// builds these from disk; tests can build them directly.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/crypto/src/xts.rs`.
    pub path: String,
    /// Full file contents.
    pub source: String,
}

/// How a file participates in the build, derived from its path. Rules
/// scope themselves by kind: library code carries the full rule set while
/// tests, benches, and demo binaries get progressively more latitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Code under `src/` (excluding `src/bin/`).
    Lib,
    /// A binary target (`src/bin/` or `bin/`).
    Bin,
    /// An example under `examples/`.
    Example,
    /// Integration test under `tests/`.
    Test,
    /// Benchmark under `benches/`.
    Bench,
}

/// Classifies a workspace-relative path.
pub fn classify(path: &str) -> FileKind {
    let segs: Vec<&str> = path.split('/').collect();
    if segs.contains(&"tests") {
        FileKind::Test
    } else if segs.contains(&"benches") {
        FileKind::Bench
    } else if segs.contains(&"examples") {
        FileKind::Example
    } else if segs.contains(&"bin") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>/...` ->
/// `<name>`; anything else is the root package).
pub fn crate_of(path: &str) -> &str {
    let mut segs = path.split('/');
    if segs.next() == Some("crates") {
        if let Some(name) = segs.next() {
            return name;
        }
    }
    "root"
}

/// True when `path` is a crate root that must carry
/// `#![forbid(unsafe_code)]`.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// A parsed inline `// lint:allow(rule, ...): reason` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Suppression {
    pub(crate) rules: Vec<String>,
    pub(crate) has_reason: bool,
    pub(crate) line: u32,
    pub(crate) end_line: u32,
}

impl Suppression {
    pub(crate) fn covers(&self, rule: &str, line: u32) -> bool {
        self.rules.iter().any(|r| r == rule) && line >= self.line && line <= self.end_line + 1
    }
}

/// Everything the rules need about one file.
pub(crate) struct Analysis {
    pub(crate) path: String,
    pub(crate) kind: FileKind,
    pub(crate) tokens: Vec<Token>,
    pub(crate) in_test: Vec<bool>,
    pub(crate) suppressions: Vec<Suppression>,
    pub(crate) structs: Vec<StructInfo>,
    pub(crate) drop_impls: Vec<String>,
    pub(crate) ast: ast::Ast,
}

impl Analysis {
    /// The tokens of an inclusive span, clipped to the file.
    pub(crate) fn span_tokens(&self, (start, end): ast::Span) -> &[Token] {
        &self.tokens[start.min(self.tokens.len())..(end + 1).min(self.tokens.len())]
    }
}

/// The cacheable result of analyzing one file: raw (pre-suppression,
/// pre-allowlist) per-file findings plus the facts the workspace passes
/// consume. Deliberately independent of `lint.toml`, so allowlist edits
/// never invalidate the cache.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileRecord {
    pub(crate) findings: Vec<Finding>,
    pub(crate) structs: Vec<StructFact>,
    pub(crate) drop_impls: Vec<String>,
    /// Per `Drop` impl in this file: `(target, body zeroizes)`.
    pub(crate) drop_zeroizes: Vec<(String, bool)>,
    pub(crate) lock_edges: Vec<LockEdge>,
    pub(crate) suppressions: Vec<Suppression>,
}

/// The cross-file-relevant facts about one struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StructFact {
    pub(crate) name: String,
    pub(crate) line: u32,
    pub(crate) secret_bearing: bool,
    pub(crate) in_test: bool,
    /// Names of container-typed fields (the ones that can hold key
    /// bytes), for matching secret-tainted struct-literal inits.
    pub(crate) container_fields: Vec<String>,
}

/// One struct definition with the facts the secret rules care about.
#[derive(Debug)]
pub(crate) struct StructInfo {
    name: String,
    line: u32,
    derives: Vec<String>,
    /// `(field_name, rendered_type)`; tuple fields have an empty name.
    fields: Vec<(String, String)>,
    in_test: bool,
}

impl StructInfo {
    /// Container-typed field names — the fields that can physically hold
    /// key bytes.
    fn container_fields(&self) -> Vec<String> {
        self.fields
            .iter()
            .filter(|(name, ty)| !name.is_empty() && secrets::is_container_type(ty))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// A struct is secret-bearing when its own name is in the secret
    /// lexicon and it has a container-typed payload field, or when one of
    /// its fields both names a secret and is a container. Metadata fields
    /// (`selector_bits`, `key_count`, ...) never qualify, so types like
    /// `KeyMapInference` that only *describe* keys stay clean.
    fn is_secret_bearing(&self) -> bool {
        let name_secret = secrets::is_secret_ident(&self.name);
        self.fields.iter().any(|(fname, fty)| {
            if !secrets::is_container_type(fty) {
                return false;
            }
            if field_is_secret(fname) {
                return true;
            }
            name_secret && !field_is_metadata(fname)
        })
    }
}

/// Field-name payload test: carries a secret stem and does not end in a
/// metadata tail.
fn field_is_secret(name: &str) -> bool {
    if name.is_empty() {
        return false;
    }
    let segs = secrets::segments(name);
    segs.iter().any(|s| {
        secrets::is_secret_ident(s) // single-segment check against the stems
    }) && !field_is_metadata(name)
}

/// Metadata tails for *field names*: sizes, counts, addresses, bit
/// selections. Deliberately narrower than the expression-level benign set —
/// a container field named `words` or `bytes` inside a `KeySchedule` is the
/// key material itself.
fn field_is_metadata(name: &str) -> bool {
    const METADATA_TAILS: &[&str] = &[
        "size",
        "sizes",
        "len",
        "lens",
        "length",
        "lengths",
        "count",
        "counts",
        "id",
        "ids",
        "idx",
        "index",
        "indices",
        "addr",
        "addrs",
        "address",
        "addresses",
        "bit",
        "bits",
        "offset",
        "offsets",
        "policy",
        "kind",
        "kinds",
        "range",
        "ranges",
        "width",
        "widths",
    ];
    if name.is_empty() {
        return true; // tuple fields are judged by type alone via field_is_secret
    }
    let segs = secrets::segments(name);
    match segs.last() {
        Some(tail) => METADATA_TAILS.contains(&tail.as_str()),
        None => true,
    }
}

/// Macros whose arguments must never see secret identifiers.
pub(crate) const PRINT_MACROS: &[&str] = &[
    "println",
    "print",
    "eprintln",
    "eprint",
    "format",
    "format_args",
    "dbg",
    "write",
    "writeln",
];

/// Panicking constructs audited in library code.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Tuning knobs for a lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Worker threads for the per-file fan-out; `0` picks the machine's
    /// available parallelism.
    pub threads: usize,
    /// Analysis cache directory (usually `<root>/target/lint-cache`);
    /// `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Report `lint.toml` allow entries that match no raw finding.
    pub check_stale_allows: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_dir: None,
            check_stale_allows: true,
        }
    }
}

/// Bookkeeping from one run, for the CLI's `--stats` and the cache tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Files considered.
    pub files: usize,
    /// Files whose *check phase* re-ran this run (lex/parse/rules). This
    /// is the dependency-aware count: a file re-checks when its own text
    /// changed or a callee's summary did.
    pub reanalyzed: usize,
    /// Files whose check phase was served from the cache.
    pub cached: usize,
    /// Files whose summary facts were re-extracted this run (summary
    /// records key on file content alone).
    pub summarized: usize,
    /// Files whose summary facts came from the cache.
    pub summary_cached: usize,
    /// Interprocedural bookkeeping from the fixpoint.
    pub summary: SummaryStats,
}

/// Findings plus run bookkeeping.
#[derive(Debug)]
pub struct LintRun {
    pub findings: Vec<Finding>,
    pub stats: RunStats,
}

/// Lints a set of in-memory sources as one workspace with default
/// options (no cache, auto threads) and without stale-allow checking —
/// partial file sets legitimately leave allow entries unmatched. Kept as
/// the stable simple entry point; [`lint_sources_with`] exposes the full
/// surface.
pub fn lint_sources(files: &[SourceFile], config: &LintConfig) -> Vec<Finding> {
    let opts = LintOptions {
        check_stale_allows: false,
        ..LintOptions::default()
    };
    lint_sources_with(files, config, &opts).findings
}

/// A file parsed this run, with the check sites its extraction recorded
/// (one [`Sites`] per fact, in fact order).
type Parsed = (Analysis, Vec<Sites>);

/// Lexes, parses and extracts one file.
fn extract_file(file: &SourceFile) -> (Vec<FnFact>, Parsed) {
    let a = analyze(file);
    let (facts, sites) = summaries::extract_with_sites(&a).into_iter().unzip();
    (facts, (a, sites))
}

/// The summary phase: per-file fact extraction (cached on content alone)
/// followed by the global fixpoint. Returns the resolved workspace view,
/// the files that had to be parsed (reused by the check phase), and the
/// fresh-extraction count.
fn summary_phase(
    files: &[SourceFile],
    cache: Option<&LintCache>,
    threads: usize,
) -> (SummaryCtx, Vec<Option<Parsed>>, usize) {
    let extracted: Vec<(Vec<FnFact>, Option<Parsed>, bool)> = par_map(files, threads, |file| {
        if let Some(c) = cache {
            if let Some(facts) = c.load_summary(&file.path, &file.source) {
                return (facts, None, false);
            }
        }
        let (facts, parsed) = extract_file(file);
        if let Some(c) = cache {
            c.store_summary(&file.path, &file.source, &facts);
        }
        (facts, Some(parsed), true)
    });
    let summarized = extracted.iter().filter(|(_, _, fresh)| *fresh).count();
    let mut facts = Vec::with_capacity(extracted.len());
    let mut parsed = Vec::with_capacity(extracted.len());
    for (f, p, _) in extracted {
        facts.push(f);
        parsed.push(p);
    }
    let graph = CallGraph::build(files.iter().map(|f| f.path.clone()).collect(), facts);
    let (sums, stats) = summaries::fixpoint(&graph);
    (SummaryCtx::new(graph, sums, stats), parsed, summarized)
}

/// Lints a set of in-memory sources as one workspace, in two phases.
/// Phase one extracts per-function summary facts from every file (cached
/// on file content) and iterates the interprocedural fixpoint over the
/// workspace call graph. Phase two runs every per-file rule with the
/// resolved summaries in scope (cached on file content *plus* the summary
/// hashes of the file's callees, so editing a callee re-checks dependent
/// callers and only them), then the cross-file passes (zeroize-on-drop,
/// zeroize-coverage, panic-reachability, blocking-in-worker, lock-order
/// cycles), then filters through inline suppressions and the allowlist,
/// reporting stale allow entries when asked. Returned findings are sorted
/// by `(file, line, rule)` and are deterministic for a given input
/// regardless of thread count or cache state.
pub fn lint_sources_with(files: &[SourceFile], config: &LintConfig, opts: &LintOptions) -> LintRun {
    let cache = opts
        .cache_dir
        .as_deref()
        .and_then(|dir| LintCache::open(dir).ok());
    let cache = cache.as_ref();

    let (sctx, parsed, summarized) = summary_phase(files, cache, opts.threads);
    let dep_hashes: Vec<u64> = (0..files.len()).map(|i| sctx.file_dep_hash(i)).collect();

    let items: Vec<(usize, Option<Parsed>)> = parsed.into_iter().enumerate().collect();
    let results: Vec<(FileRecord, bool)> = par_map(&items, opts.threads, |(i, parsed)| {
        let file = &files[*i];
        let deps = dep_hashes[*i];
        if let Some(c) = cache {
            if let Some(rec) = c.load(&file.path, &file.source, deps) {
                return (rec, false);
            }
        }
        // A file whose facts came from the cache is parsed and extracted
        // again: its check sites are never cached.
        let owned;
        let (a, sites) = match parsed {
            Some(p) => p,
            None => {
                owned = extract_file(file).1;
                &owned
            }
        };
        let rec = analyze_file(a, sites, &sctx, *i);
        if let Some(c) = cache {
            c.store(&file.path, &file.source, deps, &rec);
        }
        (rec, true)
    });
    let reanalyzed = results.iter().filter(|(_, fresh)| *fresh).count();
    let records: Vec<(String, FileRecord)> = files
        .iter()
        .map(|f| f.path.clone())
        .zip(results.into_iter().map(|(rec, _)| rec))
        .collect();

    let mut findings: Vec<Finding> = records
        .iter()
        .flat_map(|(_, rec)| rec.findings.iter().cloned())
        .collect();
    rule_zeroize_drop(&records, &mut findings);
    rule_zeroize_coverage(&records, &sctx, &mut findings);
    findings.extend(sctx.panic_reachability_findings());
    findings.extend(sctx.blocking_in_worker_findings());
    findings.extend(crate::concurrency::findings(&sctx));
    let mut lock_edges: Vec<(String, LockEdge)> = Vec::new();
    for (path, rec) in &records {
        for e in &rec.lock_edges {
            lock_edges.push((path.clone(), e.clone()));
        }
    }
    findings.extend(locks::cycle_findings(&lock_edges));

    // Stale-allow detection runs against the *raw* findings: an allow
    // entry that would silence nothing is dead weight (or a typo'd path).
    let stale: Vec<Finding> = if opts.check_stale_allows {
        config
            .allows
            .iter()
            .filter(|entry| {
                !findings
                    .iter()
                    .any(|f| entry.matches(f.rule, &f.file, f.item.as_deref()))
            })
            .map(|entry| Finding {
                file: "lint.toml".to_string(),
                line: entry.line,
                rule: "stale-allow",
                message: format!(
                    "allow entry (rule `{}`, path `{}`) matches no finding; delete it or \
                     run with --allow-unused-allows",
                    entry.rule, entry.path
                ),
                item: entry.item.clone(),
            })
            .collect()
    } else {
        Vec::new()
    };

    // Inline suppressions and the config allowlist silence ordinary
    // findings; malformed suppressions and stale allows are reported
    // afterwards and are never themselves silenceable.
    findings.retain(|f| {
        let suppressed =
            records
                .iter()
                .find(|(path, _)| path == &f.file)
                .map_or(false, |(_, rec)| {
                    rec.suppressions
                        .iter()
                        .any(|s| s.has_reason && s.covers(f.rule, f.line))
                });
        !suppressed && !config.allows_finding(f.rule, &f.file, f.item.as_deref())
    });
    findings.extend(stale);
    for (path, rec) in &records {
        for s in &rec.suppressions {
            if !s.has_reason {
                findings.push(Finding {
                    file: path.clone(),
                    line: s.line,
                    rule: "suppression",
                    message: "lint:allow without a reason is ignored; append `: <why>`".to_string(),
                    item: None,
                });
            }
            for r in &s.rules {
                if !crate::diag::RULE_IDS.contains(&r.as_str()) {
                    findings.push(Finding {
                        file: path.clone(),
                        line: s.line,
                        rule: "suppression",
                        message: format!("lint:allow names unknown rule `{r}`"),
                        item: None,
                    });
                }
            }
        }
    }
    findings
        .sort_by(|x, y| (x.file.as_str(), x.line, x.rule).cmp(&(y.file.as_str(), y.line, y.rule)));
    LintRun {
        findings,
        stats: RunStats {
            files: files.len(),
            reanalyzed,
            cached: files.len() - reanalyzed,
            summarized,
            summary_cached: files.len() - summarized,
            summary: sctx.stats,
        },
    }
}

/// Bookkeeping from a summary-only run ([`summarize_sources`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryRun {
    /// Files whose facts were re-extracted.
    pub summarized: usize,
    /// Files served from the summary cache.
    pub summary_cached: usize,
    /// Fixpoint bookkeeping.
    pub stats: SummaryStats,
}

/// Runs only the summary phase — fact extraction plus the interprocedural
/// fixpoint — without the check phase. This isolates the interprocedural
/// overhead for benchmarks and tooling.
pub fn summarize_sources(files: &[SourceFile], opts: &LintOptions) -> SummaryRun {
    let cache = opts
        .cache_dir
        .as_deref()
        .and_then(|dir| LintCache::open(dir).ok());
    let (sctx, _, summarized) = summary_phase(files, cache.as_ref(), opts.threads);
    SummaryRun {
        summarized,
        summary_cached: files.len() - summarized,
        stats: sctx.stats,
    }
}

/// Runs the summary phase plus only the v4 concurrency pass (thread-role
/// graph + the four concurrency rule families), skipping per-file checks.
/// This isolates the concurrency-phase overhead for `lint_throughput`.
pub fn concurrency_findings(files: &[SourceFile], opts: &LintOptions) -> Vec<Finding> {
    let cache = opts
        .cache_dir
        .as_deref()
        .and_then(|dir| LintCache::open(dir).ok());
    let (sctx, _, _) = summary_phase(files, cache.as_ref(), opts.threads);
    crate::concurrency::findings(&sctx)
}

/// Runs the full per-file check pass: every per-file rule over an already
/// parsed [`Analysis`] and its extraction's check sites, which is file
/// `file` of the resolved workspace view `sctx`. This is the unit of work
/// the check cache memoizes and the thread pool fans out.
pub(crate) fn analyze_file(
    a: &Analysis,
    sites: &[Sites],
    sctx: &SummaryCtx,
    file: usize,
) -> FileRecord {
    let mut findings = Vec::new();
    rule_secret_print(a, &mut findings);
    rule_secret_debug(a, &mut findings);
    rule_const_time(a, &mut findings);
    rule_forbid_unsafe(a, &mut findings);
    rule_truncating_cast(a, &mut findings);
    rule_panic(a, &mut findings);
    dataflow::run(a, &sctx.checked_fns(file, sites), &mut findings);
    let mut lock_edges = Vec::new();
    locks::scan_file(a, &mut lock_edges, &mut findings);
    FileRecord {
        findings,
        structs: a
            .structs
            .iter()
            .map(|s| StructFact {
                name: s.name.clone(),
                line: s.line,
                secret_bearing: s.is_secret_bearing(),
                in_test: s.in_test,
                container_fields: s.container_fields(),
            })
            .collect(),
        drop_impls: a.drop_impls.clone(),
        drop_zeroizes: a
            .drop_impls
            .iter()
            .map(|t| (t.clone(), drop_body_zeroizes(a, t)))
            .collect(),
        lock_edges,
        suppressions: a.suppressions.clone(),
    }
}

/// True when `impl Drop for target`'s `drop` body plausibly zeroizes:
/// it calls `zeroize`/`fill`/`write_volatile` or assigns a zero literal
/// (`*w = 0`, `self.key = [0u8; 32]`).
fn drop_body_zeroizes(a: &Analysis, target: &str) -> bool {
    let name = format!("{target}::drop");
    let Some(f) = a.ast.fns.iter().find(|f| f.name == name) else {
        return false;
    };
    let (start, end) = f.body.span;
    let toks = &a.tokens[start.min(a.tokens.len())..(end + 1).min(a.tokens.len())];
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "zeroize" | "fill" | "write_volatile")
        {
            return true;
        }
        if t.text == "=" {
            let mut j = i + 1;
            if toks.get(j).map_or(false, |n| n.text == "[") {
                j += 1;
            }
            if toks.get(j).map_or(false, |n| {
                n.kind == TokenKind::Literal && n.text.starts_with('0')
            }) {
                return true;
            }
        }
    }
    false
}

/// Work-stealing parallel map preserving input order: an atomic cursor
/// hands out fixed-size batches to scoped worker threads, and results are
/// merged back sorted by index, so the output is identical to the
/// sequential map.
fn par_map<T, R>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    const BATCH: usize = 4;
    let n = items.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(n.max(1))
    .min(16);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(BATCH, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for (i, item) in items.iter().enumerate().skip(start).take(BATCH) {
                        local.push((i, f(item)));
                    }
                }
                collected
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend(local);
            });
        }
    });
    let mut indexed = collected
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Analyzes an in-memory `(path, source)` pair — a convenience for unit
/// tests in this crate.
#[cfg(test)]
pub(crate) fn analyze_source(path: &str, source: &str) -> Analysis {
    analyze(&SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    })
}

fn analyze(file: &SourceFile) -> Analysis {
    let lexed = lexer::lex(&file.source);
    let in_test = mark_test_spans(&lexed.tokens);
    let suppressions = parse_suppressions(&lexed.comments);
    let parsed = ast::parse(&lexed.tokens);
    let structs = parsed
        .structs
        .iter()
        .map(|s| StructInfo {
            name: s.name.clone(),
            line: s.line,
            derives: s.derives.clone(),
            fields: s.fields.clone(),
            in_test: in_test.get(s.tok).copied().unwrap_or(false),
        })
        .collect();
    let drop_impls = parsed.drop_impls.clone();
    Analysis {
        path: file.path.clone(),
        kind: classify(&file.path),
        tokens: lexed.tokens,
        in_test,
        suppressions,
        structs,
        drop_impls,
        ast: parsed,
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

/// Marks the token spans belonging to `#[cfg(test)]` / `#[test]` items so
/// rules can skip test code.
fn mark_test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: skip, never a test marker.
        if tokens.get(i + 1).map_or(false, |t| t.text == "!") {
            i += 1;
            continue;
        }
        if !tokens.get(i + 1).map_or(false, |t| t.text == "[") {
            i += 1;
            continue;
        }
        let attr_end = match matching(tokens, i + 1, "[", "]") {
            Some(e) => e,
            None => break,
        };
        let body = &tokens[i + 2..attr_end];
        let has = |name: &str| body.iter().any(|t| is_ident(t, name));
        let is_test_attr = (has("cfg") && has("test") && !has("not"))
            || body.first().map_or(false, |t| is_ident(t, "test"));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further outer attributes, then consume the item.
        let mut j = attr_end + 1;
        while tokens.get(j).map_or(false, |t| t.text == "#")
            && tokens.get(j + 1).map_or(false, |t| t.text == "[")
        {
            match matching(tokens, j + 1, "[", "]") {
                Some(e) => j = e + 1,
                None => return in_test,
            }
        }
        // Find the item body: first `{` (then match braces) or `;` at
        // paren depth 0.
        let mut paren = 0i32;
        let mut end = None;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" if paren == 0 => {
                    end = matching(tokens, k, "{", "}");
                    break;
                }
                ";" if paren == 0 => {
                    end = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end = end.unwrap_or(tokens.len() - 1);
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Index of the token matching the opener at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Parses `lint:allow(...)` suppressions out of the comment stream. Doc
/// comments never carry suppressions — they are prose that may *mention*
/// the syntax.
fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(start) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[start + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| normalize_rule(r.trim()))
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .map_or(false, |reason| !reason.trim().is_empty());
        out.push(Suppression {
            rules,
            has_reason,
            line: c.line,
            end_line: c.end_line,
        });
    }
    out
}

/// Accepts the short alias the issue tracker uses for the zeroize rule.
fn normalize_rule(r: &str) -> String {
    if r == "zeroize" {
        "zeroize-drop".to_string()
    } else {
        r.to_string()
    }
}

/// Idents that are "size observations" of a secret (`key.len()`,
/// `keys.is_empty()`): branching or comparing on these is fine.
fn is_len_observation(tokens: &[Token], ident_idx: usize) -> bool {
    tokens.get(ident_idx + 1).map_or(false, |d| d.text == ".")
        && tokens.get(ident_idx + 2).map_or(false, |m| {
            matches!(m.text.as_str(), "len" | "is_empty" | "capacity")
        })
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Rule `secret-print`: secret identifiers must not reach formatting /
/// printing macros, either as arguments or as `{ident}` inline captures.
fn rule_secret_print(a: &Analysis, findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.in_test[i] {
            continue;
        }
        if toks[i].kind != TokenKind::Ident || !PRINT_MACROS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if !toks.get(i + 1).map_or(false, |t| t.text == "!") {
            continue;
        }
        let Some(open) = toks.get(i + 2) else {
            continue;
        };
        let (oc, cc) = match open.text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => continue,
        };
        let Some(end) = matching(toks, i + 2, oc, cc) else {
            continue;
        };
        let macro_name = toks[i].text.clone();
        for j in i + 3..end {
            let t = &toks[j];
            let mut hit: Option<String> = None;
            if t.kind == TokenKind::Ident
                && secrets::is_secret_ident(&t.text)
                && !is_len_observation(toks, j)
            {
                hit = Some(t.text.clone());
            } else if t.kind == TokenKind::Literal && t.text.contains('{') {
                hit = format_capture_secret(&t.text);
            }
            if let Some(ident) = hit {
                findings.push(Finding {
                    file: a.path.clone(),
                    line: t.line,
                    rule: "secret-print",
                    message: format!(
                        "secret identifier `{ident}` reaches `{macro_name}!`; key material \
                         must never be formatted"
                    ),
                    item: Some(ident),
                });
                break; // one finding per macro invocation
            }
        }
    }
}

/// Extracts the `{ident}` / `{ident:spec}` inline captures from a format
/// string body (escaped `{{` skipped, positional `{}` / `{0}` ignored).
pub(crate) fn format_captures(body: &str) -> Vec<String> {
    let chars: Vec<char> = body.chars().collect();
    let mut captures = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2;
                continue;
            }
            let mut name = String::new();
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            let terminated = matches!(chars.get(j), Some(':') | Some('}'));
            if terminated && !name.is_empty() && !name.chars().all(|c| c.is_ascii_digit()) {
                captures.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    captures
}

/// Scans a format string body for `{ident}` / `{ident:spec}` captures that
/// name secrets.
fn format_capture_secret(body: &str) -> Option<String> {
    format_captures(body)
        .into_iter()
        .find(|name| secrets::is_secret_ident(name))
}

/// Rule `secret-debug`: a secret-bearing struct must not derive `Debug`
/// (write a redacting manual impl instead, or allowlist with a reason).
fn rule_secret_debug(a: &Analysis, findings: &mut Vec<Finding>) {
    if a.kind != FileKind::Lib {
        return;
    }
    for s in &a.structs {
        if s.in_test || !s.is_secret_bearing() {
            continue;
        }
        if s.derives.iter().any(|d| d == "Debug") {
            findings.push(Finding {
                file: a.path.clone(),
                line: s.line,
                rule: "secret-debug",
                message: format!(
                    "secret-bearing struct `{}` derives `Debug`, exposing key material via \
                     `{{:?}}`; write a redacting manual impl",
                    s.name
                ),
                item: Some(s.name.clone()),
            });
        }
    }
}

/// Rule `zeroize-drop`: secret-bearing structs in the victim-side crates
/// (`crypto`, `veracrypt`) must implement `Drop` so key bytes do not
/// linger in freed memory — the exact remanence the paper exploits.
fn rule_zeroize_drop(records: &[(String, FileRecord)], findings: &mut Vec<Finding>) {
    let mut crate_drops: Vec<(&str, &Vec<String>)> = Vec::new();
    for (path, rec) in records {
        crate_drops.push((crate_of(path), &rec.drop_impls));
    }
    for (path, rec) in records {
        let krate = crate_of(path);
        if classify(path) != FileKind::Lib || !matches!(krate, "crypto" | "veracrypt") {
            continue;
        }
        for s in &rec.structs {
            if s.in_test || !s.secret_bearing {
                continue;
            }
            let has_drop = crate_drops
                .iter()
                .any(|(c, drops)| *c == krate && drops.iter().any(|d| d == &s.name));
            if !has_drop {
                findings.push(Finding {
                    file: path.clone(),
                    line: s.line,
                    rule: "zeroize-drop",
                    message: format!(
                        "secret-bearing struct `{}` has no `Drop` impl; zeroize key material \
                         before the allocation is freed",
                        s.name
                    ),
                    item: Some(s.name.clone()),
                });
            }
        }
    }
}

/// Crates in scope for `zeroize-coverage`: everywhere recovered key
/// material flows in this workspace.
const COVERAGE_CRATES: &[&str] = &["crypto", "veracrypt", "memenc", "dumpio"];

/// Rule `zeroize-coverage`: a struct that holds secret-tainted data — by
/// its own field names, or because the interprocedural analysis saw a
/// struct literal initialize a container field from key material — must
/// carry a *zeroizing* `Drop`. This widens `zeroize-drop` two ways: it
/// covers the `memenc`/`dumpio` crates and taint-discovered structs, and
/// it inspects the Drop body instead of accepting any impl. The two rules
/// stay disjoint: a secret-bearing crypto/veracrypt struct with no Drop
/// at all is `zeroize-drop`'s finding, not this one's.
fn rule_zeroize_coverage(
    records: &[(String, FileRecord)],
    sctx: &SummaryCtx,
    findings: &mut Vec<Finding>,
) {
    let mut crate_drops: Vec<(&str, &str, bool)> = Vec::new();
    for (path, rec) in records {
        for (target, zeroizes) in &rec.drop_zeroizes {
            crate_drops.push((crate_of(path), target.as_str(), *zeroizes));
        }
    }
    let inits = sctx.secret_struct_inits();
    for (path, rec) in records {
        let krate = crate_of(path);
        if classify(path) != FileKind::Lib || !COVERAGE_CRATES.contains(&krate) {
            continue;
        }
        for s in &rec.structs {
            if s.in_test {
                continue;
            }
            let tainted_field = inits
                .iter()
                .find(|(_, sn, field)| sn == &s.name && s.container_fields.contains(field))
                .map(|(_, _, field)| field.clone());
            if !s.secret_bearing && tainted_field.is_none() {
                continue;
            }
            let drop_impl = crate_drops
                .iter()
                .find(|(c, target, _)| *c == krate && *target == s.name.as_str());
            let why = match tainted_field {
                Some(field) => format!("field `{field}` is initialized from key material"),
                None => "its fields name key material".to_string(),
            };
            match drop_impl {
                Some((_, _, true)) => {}
                Some((_, _, false)) => findings.push(Finding {
                    file: path.clone(),
                    line: s.line,
                    rule: "zeroize-coverage",
                    message: format!(
                        "struct `{}` holds secret-tainted data ({why}) but its `Drop` does \
                         not zeroize; overwrite the bytes before they are freed",
                        s.name
                    ),
                    item: Some(s.name.clone()),
                }),
                None => {
                    // `zeroize-drop` already demands *a* Drop for
                    // secret-bearing structs in crypto/veracrypt.
                    let other_rules = s.secret_bearing && matches!(krate, "crypto" | "veracrypt");
                    if !other_rules {
                        findings.push(Finding {
                            file: path.clone(),
                            line: s.line,
                            rule: "zeroize-coverage",
                            message: format!(
                                "struct `{}` holds secret-tainted data ({why}) but has no \
                                 zeroizing `Drop`; key bytes will linger in freed memory",
                                s.name
                            ),
                            item: Some(s.name.clone()),
                        });
                    }
                }
            }
        }
    }
}

/// Rule `const-time`: early-exit `==`/`!=` on secret identifiers in the
/// crypto, veracrypt, and core crates, plus secret-dependent `if`/`match`
/// branches inside `crates/crypto` itself.
fn rule_const_time(a: &Analysis, findings: &mut Vec<Finding>) {
    let krate = crate_of(&a.path);
    if a.kind != FileKind::Lib || !matches!(krate, "crypto" | "veracrypt" | "core") {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.in_test[i] {
            continue;
        }
        let text = toks[i].text.as_str();
        if toks[i].kind == TokenKind::Punct && (text == "==" || text == "!=") {
            if let Some(ident) = secret_operand(toks, i) {
                findings.push(Finding {
                    file: a.path.clone(),
                    line: toks[i].line,
                    rule: "const-time",
                    message: format!(
                        "`{text}` on secret `{ident}` is an early-exit comparison; use the \
                         constant-time helpers in `coldboot_crypto::ct`"
                    ),
                    item: Some(ident),
                });
            }
        }
        if krate == "crypto"
            && toks[i].kind == TokenKind::Ident
            && (text == "if" || text == "match")
        {
            // `if let` is a destructuring bind, not a data-dependent branch.
            if toks.get(i + 1).map_or(false, |t| is_ident(t, "let")) {
                continue;
            }
            if let Some(ident) = secret_in_condition(toks, i) {
                findings.push(Finding {
                    file: a.path.clone(),
                    line: toks[i].line,
                    rule: "const-time",
                    message: format!(
                        "`{text}` branches on secret `{ident}`; secret-dependent control \
                         flow leaks timing"
                    ),
                    item: Some(ident),
                });
            }
        }
    }
}

/// Looks for a secret identifier among the operands adjacent to a
/// comparison operator at `op_idx`.
fn secret_operand(tokens: &[Token], op_idx: usize) -> Option<String> {
    let boundary = |t: &Token| {
        matches!(
            t.text.as_str(),
            ";" | "{" | "}" | "," | "&&" | "||" | "=" | "(" | ")"
        ) || matches!(t.text.as_str(), "if" | "while" | "let" | "return" | "match")
    };
    // Walk outward in both directions until a clause boundary, bounded to a
    // small window: comparisons are syntactically local.
    for dir in [-1i64, 1i64] {
        let mut steps = 0;
        let mut j = op_idx as i64 + dir;
        while j >= 0 && (j as usize) < tokens.len() && steps < 10 {
            let t = &tokens[j as usize];
            if boundary(t) {
                break;
            }
            if t.kind == TokenKind::Ident
                && secrets::is_secret_ident(&t.text)
                && !is_len_observation(tokens, j as usize)
            {
                return Some(t.text.clone());
            }
            j += dir;
            steps += 1;
        }
    }
    None
}

/// Looks for a secret identifier inside the condition of an `if`/`match`
/// starting at `kw_idx` (tokens up to the opening `{`).
fn secret_in_condition(tokens: &[Token], kw_idx: usize) -> Option<String> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    for j in kw_idx + 1..tokens.len() {
        let t = &tokens[j];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => return None,
            ";" => return None,
            _ => {}
        }
        if t.kind == TokenKind::Ident
            && secrets::is_secret_ident(&t.text)
            && !is_len_observation(tokens, j)
        {
            return Some(t.text.clone());
        }
    }
    None
}

/// Rule `forbid-unsafe`: every crate root keeps `#![forbid(unsafe_code)]`.
fn rule_forbid_unsafe(a: &Analysis, findings: &mut Vec<Finding>) {
    if !is_crate_root(&a.path) {
        return;
    }
    let toks = &a.tokens;
    let expected = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let present = (0..toks.len().saturating_sub(expected.len() - 1)).any(|i| {
        expected
            .iter()
            .enumerate()
            .all(|(k, want)| toks[i + k].text == *want)
    });
    if !present {
        findings.push(Finding {
            file: a.path.clone(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            item: None,
        });
    }
}

/// Rule `truncating-cast`: `as u8/u16/u32/usize` applied to address
/// arithmetic in the DRAM mapping/geometry modules can silently truncate a
/// physical address.
fn rule_truncating_cast(a: &Analysis, findings: &mut Vec<Finding>) {
    if a.path != "crates/dram/src/mapping.rs" && a.path != "crates/dram/src/geometry.rs" {
        return;
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "usize"];
    const ADDR_HINTS: &[&str] = &[
        "addr", "address", "phys", "physical", "index", "idx", "row", "col", "column", "bank",
        "rank", "channel", "page", "frame", "cursor", "base",
    ];
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.in_test[i] || !is_ident(&toks[i], "as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !NARROW.contains(&target.text.as_str()) {
            continue;
        }
        // Scan the cast operand backwards to the start of the expression.
        let mut j = i as i64 - 1;
        let mut steps = 0;
        while j >= 0 && steps < 16 {
            let t = &toks[j as usize];
            if matches!(t.text.as_str(), ";" | "{" | "}" | "=" | ",")
                || matches!(t.text.as_str(), "let" | "return")
            {
                break;
            }
            if t.kind == TokenKind::Ident {
                let addr_like = secrets::segments(&t.text)
                    .iter()
                    .any(|s| ADDR_HINTS.contains(&s.as_str()));
                if addr_like {
                    findings.push(Finding {
                        file: a.path.clone(),
                        line: toks[i].line,
                        rule: "truncating-cast",
                        message: format!(
                            "`as {}` on address-derived value `{}` can silently truncate a \
                             physical address",
                            target.text, t.text
                        ),
                        item: Some(t.text.clone()),
                    });
                    break;
                }
            }
            j -= 1;
            steps += 1;
        }
    }
}

/// Rule `panic`: no `unwrap()`, `expect()`, `panic!`, `unreachable!`,
/// `todo!`, or `unimplemented!` in non-test library code.
fn rule_panic(a: &Analysis, findings: &mut Vec<Finding>) {
    if a.kind != FileKind::Lib {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.in_test[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let text = toks[i].text.as_str();
        let is_method_panic = (text == "unwrap" || text == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map_or(false, |t| t.text == "(");
        let is_macro_panic =
            PANIC_MACROS.contains(&text) && toks.get(i + 1).map_or(false, |t| t.text == "!");
        if is_method_panic || is_macro_panic {
            let display = if is_macro_panic {
                format!("{text}!")
            } else {
                format!("{text}()")
            };
            findings.push(Finding {
                file: a.path.clone(),
                line: toks[i].line,
                rule: "panic",
                message: format!(
                    "`{display}` in library code; propagate an error or justify with \
                     lint:allow(panic)"
                ),
                item: Some(text.to_string()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        lint_sources(
            &[SourceFile {
                path: path.to_string(),
                source: src.to_string(),
            }],
            &LintConfig::default(),
        )
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/attack.rs"), FileKind::Lib);
        assert_eq!(classify("crates/core/src/bin/demo.rs"), FileKind::Bin);
        assert_eq!(classify("crates/core/tests/e2e.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/b.rs"), FileKind::Bench);
        assert_eq!(classify("examples/ex.rs"), FileKind::Example);
        assert_eq!(classify("tests/lint_gate.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/crypto/src/xts.rs"), "crypto");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/lint_gate.rs"), "root");
    }

    #[test]
    fn test_spans_are_marked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn b() { y.unwrap(); }\n}";
        let findings = lint_one("crates/core/src/a.rs", src);
        let panics: Vec<_> = findings.iter().filter(|f| f.rule == "panic").collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].line, 1);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src =
            "fn a() {\n    // lint:allow(panic): structurally infallible here\n    x.unwrap();\n}";
        let findings = lint_one("crates/core/src/a.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let src = "fn a() {\n    // lint:allow(panic)\n    x.unwrap();\n}";
        let findings = lint_one("crates/core/src/a.rs", src);
        assert!(findings.iter().any(|f| f.rule == "panic"));
        assert!(findings.iter().any(|f| f.rule == "suppression"));
    }

    #[test]
    fn forbid_unsafe_only_on_crate_roots() {
        let missing = lint_one("crates/core/src/lib.rs", "pub fn f() {}");
        assert!(missing.iter().any(|f| f.rule == "forbid-unsafe"));
        let present = lint_one(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        );
        assert!(present.iter().all(|f| f.rule != "forbid-unsafe"));
        let non_root = lint_one("crates/core/src/other.rs", "pub fn f() {}");
        assert!(non_root.iter().all(|f| f.rule != "forbid-unsafe"));
    }

    #[test]
    fn drop_impl_satisfies_zeroize() {
        let src = "pub struct RoundKeys { words: Vec<u32> }\nimpl Drop for RoundKeys { fn drop(&mut self) {} }";
        let findings = lint_one("crates/crypto/src/k.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != "zeroize-drop"),
            "{findings:?}"
        );
    }

    #[test]
    fn zeroize_flags_secret_struct_without_drop() {
        let src = "pub struct RoundKeys { words: Vec<u32> }";
        let findings = lint_one("crates/crypto/src/k.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.rule == "zeroize-drop" && f.item.as_deref() == Some("RoundKeys")));
        // Outside crypto/veracrypt the rule does not apply.
        let elsewhere = lint_one("crates/scrambler/src/k.rs", src);
        assert!(elsewhere.iter().all(|f| f.rule != "zeroize-drop"));
    }

    #[test]
    fn format_capture_detection() {
        assert_eq!(
            format_capture_secret("round trip {master_key:02x}"),
            Some("master_key".to_string())
        );
        assert_eq!(format_capture_secret("count {n} of {total}"), None);
        assert_eq!(format_capture_secret("escaped {{key}}"), None);
    }
}
