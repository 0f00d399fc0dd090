//! Findings, their text/JSON renderings, and baseline files.

use std::fmt;

/// The stable identifiers of every rule the engine can fire.
pub const RULE_IDS: &[&str] = &[
    "secret-print",
    "secret-debug",
    "zeroize-drop",
    "const-time",
    "forbid-unsafe",
    "truncating-cast",
    "panic",
    "suppression",
    "lossy-len-cast",
    "unbounded-loop",
    "untimed-io",
    "lock-order",
    "secret-taint",
    "zeroize-coverage",
    "panic-reachability",
    "blocking-in-worker",
    "atomic-ordering",
    "blocking-in-event-loop",
    "channel-deadlock",
    "join-leak",
    "stale-allow",
];

/// One-line description per rule id, used by `--list-rules` and the SARIF
/// rule metadata. Kept in [`RULE_IDS`] order.
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "secret-print",
        "secret identifiers must not reach print/format macros",
    ),
    (
        "secret-debug",
        "secret-bearing structs must not derive Debug",
    ),
    (
        "zeroize-drop",
        "secret-bearing structs in victim crates need a zeroizing Drop",
    ),
    (
        "const-time",
        "no early-exit comparisons or branches on secret data",
    ),
    (
        "forbid-unsafe",
        "every crate root keeps #![forbid(unsafe_code)]",
    ),
    (
        "truncating-cast",
        "no narrowing casts on DRAM address arithmetic",
    ),
    ("panic", "no unwrap/expect/panic! in library code"),
    (
        "suppression",
        "lint:allow annotations must name known rules and give a reason",
    ),
    (
        "lossy-len-cast",
        "length-derived values must not be narrowed with `as`; use try_from",
    ),
    (
        "unbounded-loop",
        "service/scan loops must have an exit or consult a cancel/deadline control",
    ),
    (
        "untimed-io",
        "service socket reads need a read timeout and an Interrupted retry",
    ),
    (
        "lock-order",
        "Mutex acquisition order must be acyclic and never reentrant",
    ),
    (
        "secret-taint",
        "values derived from secret fields must not reach format/log sinks",
    ),
    (
        "zeroize-coverage",
        "structs holding secret-tainted data need a zeroizing Drop",
    ),
    (
        "panic-reachability",
        "service worker/connection paths must not reach a panic",
    ),
    (
        "blocking-in-worker",
        "queue workers must not perform blocking socket IO",
    ),
    (
        "atomic-ordering",
        "Relaxed stores that publish to another thread role need Release/Acquire",
    ),
    (
        "blocking-in-event-loop",
        "event-loop and connection-handler threads must not sleep or block",
    ),
    (
        "channel-deadlock",
        "rendezvous send+recv on one thread, or unwrapped cross-thread sends",
    ),
    (
        "join-leak",
        "spawned JoinHandles must be joined, kept, or explicitly detached",
    ),
    (
        "stale-allow",
        "lint.toml allow entries must match at least one raw finding",
    ),
];

/// Per-rule rationale and fix example for the CLI's `--explain`. Kept in
/// [`RULE_IDS`] order; the doc test pins one entry per rule.
pub const RULE_EXPLANATIONS: &[(&str, &str, &str)] = &[
    (
        "secret-print",
        "The paper recovers keys precisely because they were observable; formatting a \
         secret writes it to logs, terminals, and core dumps where it outlives the process.",
        "println!(\"key = {master_key:02x?}\")  ->  log only derived facts: \
         println!(\"key loaded, {} bytes\", master_key.len())",
    ),
    (
        "secret-debug",
        "A derived Debug impl walks every field, so any {:?} of a containing value \
         dumps the key bytes. Secret-bearing structs need a redacting manual impl.",
        "#[derive(Debug)] struct Keys { words: Vec<u32> }  ->  impl fmt::Debug for Keys \
         { /* print \"Keys(<redacted>)\" */ }",
    ),
    (
        "zeroize-drop",
        "Cold-boot attacks read memory after software stops running; key bytes left in \
         freed allocations are exactly the remanence the paper exploits (sections 5-6).",
        "struct Keys { words: Vec<u32> }  ->  impl Drop for Keys { fn drop(&mut self) \
         { for w in self.words.iter_mut() { *w = 0; } } }",
    ),
    (
        "const-time",
        "Early-exit comparisons and secret-dependent branches leak how many bytes \
         matched through timing, turning a key check into an oracle.",
        "if guess == master_key { ... }  ->  use coldboot_crypto::ct::eq(guess, \
         &master_key) and branch on the bool",
    ),
    (
        "forbid-unsafe",
        "The workspace proves its claims with safe Rust; one unsafe block invalidates \
         the memory-safety argument the analysis depends on.",
        "crate root missing the attribute  ->  add #![forbid(unsafe_code)] at the top \
         of src/lib.rs",
    ),
    (
        "truncating-cast",
        "DRAM physical addresses exceed 32 bits; `as u32` on address arithmetic \
         silently wraps and scans the wrong row (the bug class behind mapping.rs).",
        "let row = addr as u32;  ->  let row = u32::try_from(addr)?;",
    ),
    (
        "panic",
        "A panic in library code aborts the scan/service path that called it; errors \
         must flow to the caller who can retry or report.",
        "header.parse().unwrap()  ->  header.parse().map_err(|e| ScanError::Header(e))?",
    ),
    (
        "suppression",
        "lint:allow without a reason (or naming an unknown rule) silences nothing and \
         rots; every suppression must say why it is sound.",
        "// lint:allow(panic)  ->  // lint:allow(panic): length checked two lines above",
    ),
    (
        "lossy-len-cast",
        "Record and buffer lengths exceed u32 on large dumps; `as u32` truncates \
         silently and corrupts the CBDF framing (the PR 4 writer bug).",
        "data.len() as u32  ->  u32::try_from(data.len())?",
    ),
    (
        "unbounded-loop",
        "Service and scan loops that never consult cancel/deadline/shutdown keep a \
         worker pinned after the operator asked it to stop.",
        "loop { step(); }  ->  loop { if ctrl.cancelled() { break; } step(); }",
    ),
    (
        "untimed-io",
        "A blocking socket read with no timeout lets one stalled peer wedge the dump \
         service; an EINTR drop loses the connection on any timer signal.",
        "stream.read(&mut buf)?  ->  stream.set_read_timeout(Some(t))? at accept, and \
         retry the read on ErrorKind::Interrupted",
    ),
    (
        "lock-order",
        "Two threads acquiring the same Mutexes in opposite orders deadlock the \
         service under load; acquisition order must be a DAG.",
        "lock(a) then lock(b) in one path, lock(b) then lock(a) in another  ->  pick \
         one global order and take both locks in it",
    ),
    (
        "secret-taint",
        "Renaming a key does not launder it: a value copied out of a secret field (or \
         returned by a key-deriving helper, across function and file boundaries) is \
         still key material when it reaches a format/log sink.",
        "let material = self.master_key.clone(); println!(\"{material:02x?}\");  ->  \
         drop the print, or log material.len() only",
    ),
    (
        "zeroize-coverage",
        "Secret taint flows into ordinary-looking structs (staging buffers, session \
         state); if their Drop does not zeroize, key bytes survive free() and remain \
         recoverable by the paper's attack.",
        "struct Stash { buf: Vec<u8> } filled from a key  ->  impl Drop for Stash \
         { fn drop(&mut self) { self.buf.fill(0); } }",
    ),
    (
        "panic-reachability",
        "dumpd workers and connection handlers run detached; a panic anywhere in \
         their call graph kills the worker silently and the queue stalls.",
        "worker calls parse_header() which calls .unwrap()  ->  return Result from \
         the helper and have the worker log-and-continue",
    ),
    (
        "blocking-in-worker",
        "Queue workers own CPU-bound jobs; blocking socket IO inside one stalls every \
         queued job behind a slow peer. IO belongs in the connection path.",
        "worker_loop reads from a TcpStream  ->  have the accept/connection path do \
         the read and enqueue parsed jobs only",
    ),
    (
        "atomic-ordering",
        "A Relaxed store gives readers on other threads no happens-before edge to the \
         data written before it, so a flag/cursor handoff published with Relaxed can be \
         observed before the writes it guards. Monotonic fetch_add counters and \
         literal-bool cancel flags carry no payload and stay clean; everything else \
         needs a Release store paired with Acquire loads (or a justified allow).",
        "shutdown.store(true, Ordering::Relaxed)  ->  shutdown.store(true, \
         Ordering::Release) with shutdown.load(Ordering::Acquire) on the reader side",
    ),
    (
        "blocking-in-event-loop",
        "The cluster front end multiplexes every connection onto one poll thread; a \
         thread::sleep, blocking socket call, or unbounded recv reachable from that \
         thread (at any call depth) stops polling all of them at once. Per-connection \
         handler threads likewise must not sleep or drain unbounded queues.",
        "if !active { thread::sleep(IDLE_SLEEP); }  ->  poll with a timeout, or sleep a \
         capped backoff that resets the moment any connection makes progress",
    ),
    (
        "channel-deadlock",
        "sync_channel(0) is a rendezvous: send blocks until recv arrives, so both ends \
         reachable on the same thread self-deadlock. And a send whose receiver lives on \
         another thread panics on unwrap when that thread exits first (the recycle-loop \
         shutdown race).",
        "tx.send(x).unwrap(); rx.recv()  ->  move one endpoint to the spawned thread, \
         and write `let _ = tx.send(x)` where receiver shutdown is a normal exit",
    ),
    (
        "join-leak",
        "Dropping a JoinHandle detaches the thread silently: its panic is lost and \
         shutdown cannot wait for it. Keeping the handle (join, store, return) or \
         writing `let _ =` makes the detach an audited decision.",
        "thread::spawn(|| handle_connection(s));  ->  let _ = thread::spawn(|| \
         handle_connection(s));  // or keep the handle and join on drain",
    ),
    (
        "stale-allow",
        "An allow entry matching no finding is dead config: either the debt was fixed \
         (delete it) or the path/rule is a typo (fix it).",
        "remove the stale [[allow]] entry from lint.toml, or correct its path",
    ),
];

/// Looks up a rule's rationale and fix example for `--explain`.
pub fn rule_explanation(rule: &str) -> Option<(&'static str, &'static str)> {
    RULE_EXPLANATIONS
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(_, why, fix)| (*why, *fix))
}

/// Looks up a rule description.
pub fn rule_description(rule: &str) -> &'static str {
    RULE_DESCRIPTIONS
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|(_, d)| *d)
        .unwrap_or("")
}

/// Interns a rule name against [`RULE_IDS`] (the `&'static str` in
/// [`Finding`] requires it); `None` for unknown rules.
pub fn intern_rule(rule: &str) -> Option<&'static str> {
    RULE_IDS.iter().find(|r| **r == rule).copied()
}

/// One diagnostic produced by the rule engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier from [`RULE_IDS`].
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The item (struct, identifier, macro) the finding is about, used for
    /// `item`-scoped allowlist entries.
    pub item: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON document:
/// `{"findings":[{"file":..,"line":..,"rule":..,"message":..,"item":..}],"count":N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
        if let Some(item) = &f.item {
            out.push_str(&format!(",\"item\":\"{}\"", json_escape(item)));
        }
        out.push('}');
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

/// Renders findings in rustc style, one per line, plus a trailing summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("coldboot-lint: no findings\n");
    } else {
        out.push_str(&format!(
            "coldboot-lint: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// A baseline: known findings to suppress, keyed by `(rule, file, item)`.
/// The line number is deliberately *not* part of the key — baselined debt
/// should not resurface every time unrelated edits shift a file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<(String, String, Option<String>)>,
}

impl Baseline {
    /// Parses the `rule<TAB>file<TAB>item` line format written by
    /// [`Baseline::render`]. `-` means "no item"; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(rule), Some(file), Some(item)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline:{}: expected `rule<TAB>file<TAB>item`",
                    idx + 1
                ));
            };
            entries.push((
                rule.to_string(),
                file.to_string(),
                if item == "-" {
                    None
                } else {
                    Some(item.to_string())
                },
            ));
        }
        Ok(Self { entries })
    }

    /// Renders findings as a baseline document.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# coldboot-lint baseline: one `rule<TAB>file<TAB>item` per line (`-` = no item)\n",
        );
        let mut lines: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "{}\t{}\t{}",
                    f.rule,
                    f.file,
                    f.item.as_deref().unwrap_or("-")
                )
            })
            .collect();
        lines.sort();
        lines.dedup();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// True when the finding matches a baseline entry exactly.
    pub fn covers(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|(rule, file, item)| rule == f.rule && file == &f.file && item == &f.item)
    }

    /// Number of entries (for CLI reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            file: "crates/crypto/src/xts.rs".to_string(),
            line: 12,
            rule: "panic",
            message: "call to `unwrap()` in library code".to_string(),
            item: Some("unwrap".to_string()),
        }
    }

    #[test]
    fn text_is_rustc_style() {
        assert_eq!(
            sample().to_string(),
            "crates/crypto/src/xts.rs:12: panic: call to `unwrap()` in library code"
        );
    }

    #[test]
    fn json_round_trip_shape() {
        let doc = render_json(&[sample()]);
        assert!(doc.starts_with("{\"findings\":["));
        assert!(doc.contains("\"line\":12"));
        assert!(doc.contains("\"rule\":\"panic\""));
        assert!(doc.ends_with("\"count\":1}"));
    }

    #[test]
    fn json_escaping() {
        let doc = render_json(&[Finding {
            file: "a\"b".to_string(),
            line: 1,
            rule: "panic",
            message: "tab\there".to_string(),
            item: None,
        }]);
        assert!(doc.contains("a\\\"b"));
        assert!(doc.contains("tab\\there"));
    }

    #[test]
    fn empty_render() {
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}");
        assert!(render_text(&[]).contains("no findings"));
    }

    #[test]
    fn every_rule_has_a_description() {
        for rule in RULE_IDS {
            assert!(
                !rule_description(rule).is_empty(),
                "missing description: {rule}"
            );
        }
        assert_eq!(RULE_IDS.len(), RULE_DESCRIPTIONS.len());
    }

    #[test]
    fn every_rule_has_an_explanation() {
        assert_eq!(RULE_IDS.len(), RULE_EXPLANATIONS.len());
        for (i, rule) in RULE_IDS.iter().enumerate() {
            let (id, why, fix) = RULE_EXPLANATIONS[i];
            assert_eq!(id, *rule, "RULE_EXPLANATIONS out of order at {rule}");
            assert!(
                !why.is_empty() && !fix.is_empty(),
                "empty explanation: {rule}"
            );
            assert!(rule_explanation(rule).is_some());
        }
        assert!(rule_explanation("no-such-rule").is_none());
    }

    #[test]
    fn baseline_round_trip() {
        let text = Baseline::render(&[sample()]);
        let bl = Baseline::parse(&text).unwrap();
        assert_eq!(bl.len(), 1);
        assert!(bl.covers(&sample()));
        let mut other = sample();
        other.line = 999; // line changes do not break the baseline
        assert!(bl.covers(&other));
        other.item = None;
        assert!(!bl.covers(&other));
    }

    #[test]
    fn baseline_rejects_malformed_lines() {
        assert!(Baseline::parse("just-a-rule\n").is_err());
        assert!(Baseline::parse("# comment only\n\n").unwrap().is_empty());
    }
}
