//! Minimal hand-rolled JSON: a serializer plus a small strict parser.
//!
//! The workspace deliberately carries no serialization dependency, and the
//! two consumers are tiny: the bench binaries emit `BENCH_*.json` report
//! files (pretty rendering), and the `coldboot-dumpd` wire protocol speaks
//! line-delimited JSON (compact rendering + parsing). Objects preserve
//! insertion order (deterministic output for diffing) and non-finite
//! floats render as `null` (JSON has no NaN/Infinity).
//!
//! [`Json::Raw`] holds a document that is already rendered. A service keeps
//! a large finished result as one shared string and splices it into every
//! reply that carries it, instead of keeping a tree and rendering it again
//! per fetch.
//!
//! Reports must contain **counts and rates only** — never key material or
//! other image-derived bytes. The secret-hygiene lint treats any
//! `key`-named value reaching a serializer as a finding.

use std::fmt::Write as _;
use std::sync::Arc;

/// Parser recursion limit: deep enough for any legitimate protocol
/// message, shallow enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
    /// A complete document already rendered compact, written verbatim by
    /// both renderers. The parser never produces it.
    Raw(Arc<str>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the form the
    /// `coldboot-dumpd` line protocol sends.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// [`render_compact`](Self::render_compact) into a caller-owned
    /// buffer. The buffer is cleared first, so a per-connection scratch
    /// `String` makes steady-state rendering allocation-free once it has
    /// grown to the working-set line length.
    pub fn render_compact_into(&self, out: &mut String) {
        out.clear();
        self.write_compact(out);
    }

    /// Looks up a field of an object; `None` for missing fields and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric value as a float (`Int` coerces).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                // lint:allow(panic): write! to a String cannot fail
                write!(out, "{i}").expect("write to String");
            }
            Json::Num(v) if v.is_finite() => {
                // lint:allow(panic): write! to a String cannot fail
                write!(out, "{v}").expect("write to String");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                // lint:allow(panic): write! to a String cannot fail
                write!(out, "{i}").expect("write to String");
            }
            Json::Num(v) if v.is_finite() => {
                // lint:allow(panic): write! to a String cannot fail
                write!(out, "{v}").expect("write to String");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // lint:allow(panic): write! to a String cannot fail
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document; `None` on any malformation, including
/// trailing non-whitespace.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    Some(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        let end = self.pos.checked_add(word.len())?;
        if self.bytes.get(self.pos..end)? == word.as_bytes() {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.bytes.get(self.pos)? {
            b'n' => self.literal("null").map(|()| Json::Null),
            b't' => self.literal("true").map(|()| Json::Bool(true)),
            b'f' => self.literal("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(depth),
            b'{' => self.object(depth),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']').is_some() {
                return Some(Json::Arr(items));
            }
            self.eat(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}').is_some() {
                return Some(Json::Obj(pairs));
            }
            self.eat(b',')?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return None,
                    }
                }
                0x00..=0x1F => return None, // control bytes must be escaped
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Decode exactly one UTF-8 sequence. The input is a
                    // &str, so the byte at pos-1 starts a valid sequence —
                    // validate only its own bytes, never the whole tail
                    // (re-validating the remainder per character made
                    // string parsing quadratic, which megabyte-scale shard
                    // result lines turned into a hang).
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let seq = self.bytes.get(start..start + len)?;
                    let c = std::str::from_utf8(seq).ok()?.chars().next()?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let digits = std::str::from_utf8(self.bytes.get(self.pos..end)?).ok()?;
        let v = u32::from_str_radix(digits, 16).ok()?;
        self.pos = end;
        Some(v)
    }

    fn unicode_escape(&mut self) -> Option<char> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            self.literal("\\u")?;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return None;
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c)
        } else {
            char::from_u32(hi)
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Some(Json::Int(i));
            }
        }
        let v: f64 = text.parse().ok()?;
        if !v.is_finite() {
            return None;
        }
        Some(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let doc = Json::obj([
            ("name", Json::Str("scan".into())),
            ("threads", Json::Int(4)),
            ("mib_per_s", Json::Num(12.5)),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"scan\""));
        assert!(text.contains("\"threads\": 4"));
        assert!(text.contains("\"mib_per_s\": 12.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::Num(0.0).render(), "0\n");
    }

    #[test]
    fn object_order_is_insertion_order() {
        let doc = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        let text = doc.render();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        assert_eq!(doc.render_compact(), r#"{"ok":true,"items":[1,null]}"#);
    }

    #[test]
    fn compact_rendering_reuses_a_scratch_buffer() {
        let doc = Json::obj([("ok", Json::Bool(true))]);
        let mut scratch = String::from("stale contents from the last line");
        doc.render_compact_into(&mut scratch);
        assert_eq!(scratch, r#"{"ok":true}"#);
        // A second render into the same buffer replaces, never appends.
        Json::Int(7).render_compact_into(&mut scratch);
        assert_eq!(scratch, "7");
    }

    #[test]
    fn raw_documents_splice_verbatim() {
        let body = Json::obj([("keys", Json::Arr(vec![Json::Str("a\"b".into())]))]);
        let spliced = Json::obj([
            ("ok", Json::Bool(true)),
            ("result", Json::Raw(body.render_compact().into())),
        ]);
        let tree = Json::obj([("ok", Json::Bool(true)), ("result", body)]);
        assert_eq!(spliced.render_compact(), tree.render_compact());
        assert_eq!(parse(&spliced.render_compact()), Some(tree));
    }

    #[test]
    fn parse_roundtrips_both_renderings() {
        let doc = Json::obj([
            ("verb", Json::Str("submit".into())),
            ("id", Json::Int(-7)),
            ("rate", Json::Num(3.25)),
            ("flags", Json::Arr(vec![Json::Bool(false), Json::Null])),
            (
                "nested",
                Json::obj([("inner", Json::Str("a\"b\nc".into()))]),
            ),
        ]);
        assert_eq!(parse(&doc.render_compact()), Some(doc.clone()));
        assert_eq!(parse(&doc.render()), Some(doc));
    }

    #[test]
    fn parse_handles_numbers_and_unicode() {
        assert_eq!(parse("42"), Some(Json::Int(42)));
        assert_eq!(parse("-3"), Some(Json::Int(-3)));
        assert_eq!(parse("1.5"), Some(Json::Num(1.5)));
        assert_eq!(parse("1e3"), Some(Json::Num(1000.0)));
        assert_eq!(parse("9223372036854775807"), Some(Json::Int(i64::MAX)));
        assert_eq!(parse(r#""\u00e9""#), Some(Json::Str("é".into())));
        // A surrogate pair.
        assert_eq!(parse(r#""\ud83d\ude00""#), Some(Json::Str("😀".into())));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo\""), Some(Json::Str("héllo".into())));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\x escape\"",
            "1 2",
            "{\"a\":1} trailing",
            "\"\\ud800\"", // lone high surrogate
            "\"\\udc00\"", // lone low surrogate
            "nan",
            "--1",
        ] {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
        // Unescaped control characters are invalid JSON.
        assert_eq!(parse("\"a\nb\""), None);
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert_eq!(parse(&deep), None);
        let shallow = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&shallow).is_some());
    }

    #[test]
    fn parse_scales_to_megabyte_string_payloads() {
        // Shard result lines carry megabytes of hex strings; a quadratic
        // string scanner once turned this into an effective hang. This
        // stays sub-second when string parsing is linear and times out the
        // whole suite when it is not.
        let long = "ab".repeat(1 << 20); // 2 MiB of ASCII
        let doc = format!("{{\"counts\":[[\"{long}\",3],[\"caf\\u00e9\",1]]}}");
        let parsed = parse(&doc).expect("large payload parses");
        let pairs = parsed.get("counts").and_then(Json::as_arr).expect("array");
        let first = pairs[0].as_arr().expect("pair")[0].as_str().expect("str");
        assert_eq!(first.len(), long.len());
        let second = pairs[1].as_arr().expect("pair")[0].as_str().expect("str");
        assert_eq!(second, "café");
    }

    #[test]
    fn accessors() {
        let doc = Json::obj([
            ("s", Json::Str("x".into())),
            ("i", Json::Int(5)),
            ("f", Json::Num(2.5)),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::Int(1)])),
        ]);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("i").and_then(Json::as_i64), Some(5));
        assert_eq!(doc.get("i").and_then(Json::as_f64), Some(5.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
    }
}
