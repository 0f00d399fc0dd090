//! `lint.toml` allowlist: a tiny TOML-subset parser (std only).
//!
//! The file is a sequence of `[[allow]]` tables with string-valued entries:
//!
//! ```toml
//! [[allow]]
//! rule = "secret-debug"
//! path = "crates/core/src/litmus.rs"
//! item = "CandidateKey"          # optional: scope to one struct/ident
//! reason = "attacker-side output: recovered keys are the deliverable"
//! ```
//!
//! `rule` and `path` select findings (`path` is a prefix match, so a
//! directory path covers a whole crate); `item`, when present, further
//! restricts the entry to findings about that named item. `reason` is
//! mandatory — an allowlist without rationale rots.

use crate::diag::RULE_IDS;

/// One `[[allow]]` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id this entry silences, or `"*"` for any rule.
    pub rule: String,
    /// Workspace-relative path prefix the entry applies to.
    pub path: String,
    /// Optional item (struct or identifier name) restriction.
    pub item: Option<String>,
    /// Mandatory justification.
    pub reason: String,
    /// 1-based line of the entry's `[[allow]]` header in `lint.toml`
    /// (0 for entries built in code), used by stale-allow reporting.
    pub line: u32,
}

impl AllowEntry {
    /// True when this entry matches (and would silence) the finding.
    pub fn matches(&self, rule: &str, file: &str, item: Option<&str>) -> bool {
        (self.rule == "*" || self.rule == rule)
            && file.starts_with(self.path.as_str())
            && self.item.as_deref().map_or(true, |want| item == Some(want))
    }
}

/// Parsed allowlist configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Allow entries in file order.
    pub allows: Vec<AllowEntry>,
}

impl LintConfig {
    /// Parses the `lint.toml` subset. Returns a descriptive error naming
    /// the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut allows = Vec::new();
        let mut current: Option<PartialEntry> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_toml_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(partial) = current.take() {
                    allows.push(partial.finish()?);
                }
                current = Some(PartialEntry {
                    line: lineno as u32,
                    ..PartialEntry::default()
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "lint.toml:{lineno}: unknown table `{line}` (only [[allow]] is supported)"
                ));
            }
            let (name, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `name = \"value\"`"))?;
            let name = name.trim();
            let value = parse_toml_string(value.trim())
                .ok_or_else(|| format!("lint.toml:{lineno}: value must be a quoted string"))?;
            let entry = current
                .as_mut()
                .ok_or_else(|| format!("lint.toml:{lineno}: entry outside [[allow]] table"))?;
            match name {
                "rule" => {
                    if value != "*" && !RULE_IDS.contains(&value.as_str()) {
                        return Err(format!("lint.toml:{lineno}: unknown rule `{value}`"));
                    }
                    entry.rule = Some(value);
                }
                "path" => entry.path = Some(value),
                "item" => entry.item = Some(value),
                "reason" => entry.reason = Some(value),
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown field `{other}`"));
                }
            }
        }
        if let Some(partial) = current.take() {
            allows.push(partial.finish()?);
        }
        Ok(Self { allows })
    }

    /// True when `entry`-style matching silences a finding with the given
    /// rule, file, and item.
    pub fn allows_finding(&self, rule: &str, file: &str, item: Option<&str>) -> bool {
        self.allows.iter().any(|a| a.matches(rule, file, item))
    }
}

#[derive(Debug, Default)]
struct PartialEntry {
    rule: Option<String>,
    path: Option<String>,
    item: Option<String>,
    reason: Option<String>,
    line: u32,
}

impl PartialEntry {
    fn finish(self) -> Result<AllowEntry, String> {
        let rule = self
            .rule
            .ok_or("lint.toml: [[allow]] entry missing `rule`")?;
        let path = self
            .path
            .ok_or("lint.toml: [[allow]] entry missing `path`")?;
        let reason = self
            .reason
            .filter(|r| !r.trim().is_empty())
            .ok_or_else(|| {
                format!("lint.toml: [[allow]] entry for rule `{rule}` missing a `reason`")
            })?;
        Ok(AllowEntry {
            rule,
            path,
            item: self.item,
            reason,
            line: self.line,
        })
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses a double-quoted TOML basic string with `\"` and `\\` escapes.
fn parse_toml_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            }
        } else if c == '"' {
            return None; // unescaped quote mid-string: malformed
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let cfg = LintConfig::parse(
            r#"
# workspace allowlist
[[allow]]
rule = "secret-debug"
path = "crates/core/src/litmus.rs"
item = "CandidateKey"
reason = "attacker-side output"

[[allow]]
rule = "panic"
path = "crates/bench"
reason = "bench harness may panic"
"#,
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].item.as_deref(), Some("CandidateKey"));
        assert!(cfg.allows_finding(
            "secret-debug",
            "crates/core/src/litmus.rs",
            Some("CandidateKey")
        ));
        assert!(!cfg.allows_finding(
            "secret-debug",
            "crates/core/src/litmus.rs",
            Some("OtherStruct")
        ));
        assert!(cfg.allows_finding("panic", "crates/bench/src/lib.rs", Some("unwrap")));
        assert!(!cfg.allows_finding("panic", "crates/core/src/lib.rs", None));
    }

    #[test]
    fn reason_is_mandatory() {
        let err = LintConfig::parse("[[allow]]\nrule = \"panic\"\npath = \"x\"\n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = LintConfig::parse("[[allow]]\nrule = \"nope\"\npath = \"x\"\nreason = \"r\"\n")
            .unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn comments_and_escapes() {
        let cfg = LintConfig::parse(
            "[[allow]]\nrule = \"panic\" # trailing\npath = \"a#b\"\nreason = \"say \\\"why\\\"\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows[0].path, "a#b");
        assert_eq!(cfg.allows[0].reason, "say \"why\"");
    }

    #[test]
    fn empty_config_is_fine() {
        assert!(LintConfig::parse("").unwrap().allows.is_empty());
        assert!(LintConfig::parse("# just a comment\n")
            .unwrap()
            .allows
            .is_empty());
    }
}
