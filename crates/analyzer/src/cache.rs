//! Content-hash analysis cache under `target/lint-cache`, with
//! dependency-aware check records.
//!
//! Two record families per source file, both named by the FNV-1a hash of
//! the workspace path:
//!
//! * `.sum` — the file's per-function summary facts (the phase-one
//!   extraction). Valid while the FNV of the file *contents* and the
//!   engine's rule fingerprint match: extraction depends on nothing else.
//! * `.rec` — the file's check-phase result (raw findings, struct facts,
//!   drop impls, lock edges, suppressions — everything the workspace
//!   passes need, nothing allowlist-dependent). Its key additionally
//!   folds in a *dependency hash*: the combined summary hashes of every
//!   callee the file resolves to. Editing a callee changes its summary,
//!   which changes dependent callers' keys — so exactly the dependent
//!   callers re-check, while an unchanged tree still re-analyzes zero
//!   files.
//!
//! The format is a versioned, tab-separated text file. Any anomaly —
//! unknown version, hash mismatch, a rule id the current binary does not
//! know, a short line — makes `load` return `None` and the engine falls
//! back to a fresh analysis, so a corrupt cache can never change
//! findings, only cost time.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{intern_rule, Finding, RULE_IDS};
use crate::engine::{FileRecord, StructFact, Suppression};
use crate::locks::LockEdge;
use crate::summaries::{parse_facts, serialize_fact, FnFact};

/// Bump when the record format or rule semantics change in a way the
/// rule-id fingerprint does not capture. v3: spawn/channel/atomic facts
/// (`S`/`H`/`O`/`A` lines) plus the widened `N`/`C` formats for the
/// concurrency pass. v4: one evaluator — call results no longer join
/// every argument's secret taint, wide-minus-wide spans are checked
/// lengths, and `N` lines carry a spawn closure's `call_base`.
const CACHE_VERSION: u32 = 4;

/// 64-bit FNV-1a.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of the active rule set: any rule added, removed, or
/// renamed invalidates every record.
fn rules_fingerprint() -> u64 {
    let mut joined = format!("v{CACHE_VERSION};");
    for r in RULE_IDS {
        joined.push_str(r);
        joined.push(',');
    }
    fnv64(joined.as_bytes())
}

/// A directory of per-file analysis records.
#[derive(Debug)]
pub struct LintCache {
    dir: PathBuf,
}

impl LintCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    fn record_path(&self, path: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.rec", fnv64(path.as_bytes())))
    }

    fn summary_path(&self, path: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.sum", fnv64(path.as_bytes())))
    }

    fn content_hash(path: &str, source: &str) -> u64 {
        let mut h = fnv64(path.as_bytes());
        h ^= fnv64(source.as_bytes()).rotate_left(1);
        h ^= rules_fingerprint().rotate_left(2);
        h
    }

    /// Check-record key: file contents plus the combined summary hash of
    /// every callee the file's calls resolve to. A callee edit changes
    /// `deps`, invalidating exactly the dependent callers.
    fn check_hash(path: &str, source: &str, deps: u64) -> u64 {
        Self::content_hash(path, source) ^ deps.rotate_left(3)
    }

    /// Loads the check record for `path` if one exists and is still
    /// valid for `source` + callee summaries under the current rule set.
    pub(crate) fn load(&self, path: &str, source: &str, deps: u64) -> Option<FileRecord> {
        let text = fs::read_to_string(self.record_path(path)).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split('\t');
        if parts.next() != Some("coldboot-lint-cache") {
            return None;
        }
        let key: u64 = u64::from_str_radix(parts.next()?, 16).ok()?;
        if key != Self::check_hash(path, source, deps) {
            return None;
        }
        parse_record(path, lines)
    }

    /// Loads the summary facts for `path` if still valid for `source`.
    /// Summary records depend only on the file's own contents.
    pub(crate) fn load_summary(&self, path: &str, source: &str) -> Option<Vec<FnFact>> {
        let text = fs::read_to_string(self.summary_path(path)).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split('\t');
        if parts.next() != Some("coldboot-lint-summaries") {
            return None;
        }
        let key: u64 = u64::from_str_radix(parts.next()?, 16).ok()?;
        if key != Self::content_hash(path, source) {
            return None;
        }
        parse_facts(lines, unesc)
    }

    /// Persists the extraction facts for `path`. Best-effort, like
    /// [`LintCache::store`].
    pub(crate) fn store_summary(&self, path: &str, source: &str, facts: &[FnFact]) {
        let mut out = format!(
            "coldboot-lint-summaries\t{:016x}\n",
            Self::content_hash(path, source)
        );
        for fact in facts {
            serialize_fact(fact, &mut out, esc);
        }
        let _ = fs::write(self.summary_path(path), out);
    }

    /// Persists `record` for `path`. Best-effort: IO errors leave the
    /// cache cold but never fail the lint run.
    pub(crate) fn store(&self, path: &str, source: &str, deps: u64, record: &FileRecord) {
        let mut out = format!(
            "coldboot-lint-cache\t{:016x}\n",
            Self::check_hash(path, source, deps)
        );
        for f in &record.findings {
            out.push_str(&format!(
                "F\t{}\t{}\t{}\t{}\n",
                f.line,
                f.rule,
                esc(f.item.as_deref().unwrap_or("-")),
                esc(&f.message)
            ));
        }
        for s in &record.structs {
            out.push_str(&format!(
                "S\t{}\t{}\t{}\t{}\t{}\n",
                s.line,
                // lint:allow(secret-print): serializes the struct-fact *flag*, not key material
                u8::from(s.secret_bearing),
                u8::from(s.in_test),
                esc(&s.container_fields.join(",")),
                esc(&s.name)
            ));
        }
        for d in &record.drop_impls {
            out.push_str(&format!("D\t{}\n", esc(d)));
        }
        for (target, zeroizes) in &record.drop_zeroizes {
            out.push_str(&format!("Z\t{}\t{}\n", u8::from(*zeroizes), esc(target)));
        }
        for e in &record.lock_edges {
            out.push_str(&format!(
                "L\t{}\t{}\t{}\t{}\n",
                e.line,
                esc(&e.held),
                esc(&e.acquired),
                esc(&e.fn_name)
            ));
        }
        for s in &record.suppressions {
            out.push_str(&format!(
                "P\t{}\t{}\t{}\t{}\n",
                s.line,
                s.end_line,
                u8::from(s.has_reason),
                esc(&s.rules.join(","))
            ));
        }
        let _ = fs::write(self.record_path(path), out);
    }
}

fn parse_record<'a>(path: &str, lines: impl Iterator<Item = &'a str>) -> Option<FileRecord> {
    let mut rec = FileRecord::default();
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next()? {
            "F" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                let rule = intern_rule(parts.next()?)?;
                let item = unesc(parts.next()?);
                let message = unesc(parts.next()?);
                rec.findings.push(Finding {
                    file: path.to_string(),
                    line: line_no,
                    rule,
                    message,
                    item: if item == "-" { None } else { Some(item) },
                });
            }
            "S" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                let secret_bearing = parts.next()? == "1";
                let in_test = parts.next()? == "1";
                let fields = unesc(parts.next()?);
                let name = unesc(parts.next()?);
                rec.structs.push(StructFact {
                    name,
                    line: line_no,
                    secret_bearing,
                    in_test,
                    container_fields: if fields.is_empty() {
                        Vec::new()
                    } else {
                        fields.split(',').map(str::to_string).collect()
                    },
                });
            }
            "D" => rec.drop_impls.push(unesc(parts.next()?)),
            "Z" => {
                let zeroizes = parts.next()? == "1";
                rec.drop_zeroizes.push((unesc(parts.next()?), zeroizes));
            }
            "L" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                rec.lock_edges.push(LockEdge {
                    line: line_no,
                    held: unesc(parts.next()?),
                    acquired: unesc(parts.next()?),
                    fn_name: unesc(parts.next()?),
                });
            }
            "P" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                let end_line: u32 = parts.next()?.parse().ok()?;
                let has_reason = parts.next()? == "1";
                let rules_field = unesc(parts.next()?);
                rec.suppressions.push(Suppression {
                    rules: if rules_field.is_empty() {
                        Vec::new()
                    } else {
                        rules_field.split(',').map(str::to_string).collect()
                    },
                    has_reason,
                    line: line_no,
                    end_line,
                });
            }
            _ => return None,
        }
    }
    Some(rec)
}

/// Escapes tabs, newlines, and backslashes for the one-line-per-fact
/// format.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn escape_round_trip() {
        let s = "a\tb\\c\nd";
        assert_eq!(unesc(&esc(s)), s);
    }

    #[test]
    fn store_load_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("coldboot-lint-cache-test-{}", std::process::id()));
        let cache = LintCache::open(&dir).unwrap();
        let rec = FileRecord {
            findings: vec![Finding {
                file: "crates/x/src/a.rs".to_string(),
                line: 7,
                rule: "panic",
                message: "msg with\ttab".to_string(),
                item: Some("unwrap".to_string()),
            }],
            structs: vec![StructFact {
                name: "Keys".to_string(),
                line: 3,
                secret_bearing: true,
                in_test: false,
                container_fields: vec!["buf".to_string(), "spare".to_string()],
            }],
            drop_impls: vec!["Keys".to_string()],
            drop_zeroizes: vec![("Keys".to_string(), true)],
            lock_edges: vec![LockEdge {
                held: "state".to_string(),
                acquired: "result".to_string(),
                line: 9,
                fn_name: "worker".to_string(),
            }],
            suppressions: vec![Suppression {
                rules: vec!["panic".to_string()],
                has_reason: true,
                line: 6,
                end_line: 6,
            }],
        };
        cache.store("crates/x/src/a.rs", "fn main() {}", 7, &rec);
        let loaded = cache.load("crates/x/src/a.rs", "fn main() {}", 7).unwrap();
        assert_eq!(loaded.findings, rec.findings);
        assert_eq!(loaded.structs.len(), 1);
        assert!(loaded.structs[0].secret_bearing);
        assert_eq!(
            loaded.structs[0].container_fields,
            rec.structs[0].container_fields
        );
        assert_eq!(loaded.drop_zeroizes, rec.drop_zeroizes);
        assert_eq!(loaded.lock_edges, rec.lock_edges);
        assert_eq!(loaded.suppressions.len(), 1);
        // Different contents: miss.
        assert!(cache
            .load("crates/x/src/a.rs", "fn other() {}", 7)
            .is_none());
        // Different callee summaries: miss — a callee edit re-checks the caller.
        assert!(cache.load("crates/x/src/a.rs", "fn main() {}", 8).is_none());
        // Unknown path: miss.
        assert!(cache.load("crates/x/src/b.rs", "fn main() {}", 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_records_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "coldboot-lint-sumcache-test-{}",
            std::process::id()
        ));
        let cache = LintCache::open(&dir).unwrap();
        let facts = vec![FnFact {
            name: "Keys::expand".to_string(),
            line: 4,
            local_panic: Some(9),
            ..FnFact::default()
        }];
        cache.store_summary("crates/x/src/a.rs", "fn x() {}", &facts);
        let loaded = cache
            .load_summary("crates/x/src/a.rs", "fn x() {}")
            .unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "Keys::expand");
        assert_eq!(loaded[0].local_panic, Some(9));
        assert!(cache
            .load_summary("crates/x/src/a.rs", "fn y() {}")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
