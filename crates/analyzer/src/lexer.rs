//! A lightweight hand-rolled Rust lexer.
//!
//! The rule engine only needs a faithful *token stream with line numbers*:
//! it never builds an AST. The lexer therefore concentrates on the places a
//! naive text scan goes wrong — string literals (including raw and byte
//! strings), char literals vs. lifetimes, nested block comments, and doc
//! comments — so that a `println!` inside a doc example or a `"master_key"`
//! string literal is never mistaken for code.
//!
//! Comments are not discarded: they are collected separately so the
//! suppression pass can find `// lint:allow(rule): reason` annotations.

/// The coarse class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `key_schedule`, `as`, ...).
    Ident,
    /// Punctuation. Multi-character operators are fused when the parser or
    /// a rule needs to see them as one token (`==` `!=` `<=` `>=` `&&`
    /// `||` `->` `=>` `::`); everything else is emitted one character at a
    /// time (`<<`/`>>` deliberately stay split so generic argument lists
    /// lex the same as shifts).
    Punct,
    /// String, char, byte-string, or numeric literal. String literals keep
    /// their raw text (the secret-print rule scans them for `{ident}`
    /// inline format captures); identifier-based rules only ever look at
    /// [`TokenKind::Ident`] tokens, so words inside messages cannot trip
    /// them.
    Literal,
    /// A lifetime such as `'a` (kept distinct so it is never confused with
    /// a char literal).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Source text (empty for string literals).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// A comment captured during lexing (line or block), for suppression scans.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body including the `//` / `/*` introducer.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens and comments. The lexer is total: malformed
/// input degrades to single-character punctuation tokens rather than
/// failing, which is the right trade-off for a lint pass.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                c if c.is_alphabetic() || c == '_' => self.ident_or_prefixed_literal(),
                c if c.is_ascii_digit() => self.number(),
                '"' => self.string_literal(),
                '\'' => self.char_or_lifetime(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0);
        if let Some(ch) = c {
            if ch == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        c
    }

    fn push_token(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        self.out.comments.push(Comment {
            text,
            line: start,
            end_line: start,
        });
    }

    fn block_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                text.push(c);
                self.pos += 1;
            }
        }
        self.out.comments.push(Comment {
            text,
            line: start,
            end_line: self.line,
        });
    }

    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        // Raw/byte string prefixes: r", r#", b", br", rb is not valid Rust.
        let c0 = self.peek(0);
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_raw = |c: Option<char>| c == Some('"') || c == Some('#');
        // `r#ident` is a *raw identifier*, not a raw string: only a `#`
        // run ending in `"` introduces a string. Mistaking `r#fn` for a
        // string used to swallow the rest of the file.
        let raw_ident = c0 == Some('r')
            && c1 == Some('#')
            && c2.map_or(false, |c| c.is_alphabetic() || c == '_');
        if c0 == Some('r') && is_raw(c1) && !raw_ident {
            self.pos += 1;
            self.raw_string_literal(line);
            return;
        }
        if raw_ident {
            self.pos += 2; // the ident text is what rules match against
        }
        if c0 == Some('b') && c1 == Some('"') {
            self.pos += 1;
            self.string_literal();
            return;
        }
        if c0 == Some('b') && c1 == Some('r') && is_raw(c2) {
            self.pos += 2;
            self.raw_string_literal(line);
            return;
        }
        if c0 == Some('b') && c1 == Some('\'') {
            self.pos += 1;
            self.char_or_lifetime();
            return;
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.pos += 1;
            } else if c == '.'
                && self.peek(1).map_or(false, |n| n.is_ascii_digit())
                && !text.contains('.')
            {
                // Float like `12.5`, but never eat the `..` of a range.
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn string_literal(&mut self) {
        let line = self.line;
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    // Keep the escape pair verbatim; format-capture scanning
                    // only cares about unescaped `{`.
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn raw_string_literal(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        // Not the terminator (`"#` inside `r##"..."##`):
                        // the quote is literal body text.
                        text.push('"');
                        continue 'outer;
                    }
                }
                self.pos += hashes;
                break;
            }
            text.push(c);
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        let first = self.peek(0);
        let second = self.peek(1);
        let is_char = match first {
            Some('\\') => true,
            Some(_) => second == Some('\''),
            None => false,
        };
        if is_char {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push_token(TokenKind::Literal, String::new(), line);
        } else {
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.push_token(TokenKind::Lifetime, text, line);
        }
    }

    fn punct(&mut self) {
        let line = self.line;
        let c = match self.bump() {
            Some(c) => c,
            None => return,
        };
        // Fuse the operators the parser and rules must see whole:
        // `==` `!=` `<=` `>=` `&&` `||` `->` `=>` `::`. Everything else —
        // notably `<<`/`>>`, which would collide with generics — stays one
        // character per token.
        let fused = match (c, self.peek(0)) {
            ('=', Some('=')) | ('!', Some('=')) | ('<', Some('=')) | ('>', Some('=')) => true,
            ('&', Some('&')) | ('|', Some('|')) => true,
            ('-', Some('>')) | ('=', Some('>')) => true,
            (':', Some(':')) => true,
            _ => false,
        };
        if fused {
            if let Some(second) = self.peek(0) {
                self.pos += 1;
                self.push_token(TokenKind::Punct, format!("{c}{second}"), line);
                return;
            }
        }
        self.push_token(TokenKind::Punct, c.to_string(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            texts("let x = a == b;"),
            vec!["let", "x", "=", "a", "==", "b", ";"]
        );
    }

    #[test]
    fn string_contents_are_literals_not_idents() {
        let lexed = lex(r#"println!("master_key {x}")"#);
        let idents: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(idents, vec!["println"]);
        // The string body is retained on the Literal token for
        // format-capture scanning.
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text.contains("{x}")));
    }

    #[test]
    fn raw_and_byte_strings() {
        let lexed = lex(r##"let s = r#"key "inner""#; let b = b"key";"##);
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text.contains("key")));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            2
        );
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let lexed = lex("code(); // lint:allow(panic): fine\n/* block\nkey */ more();");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("lint:allow"));
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.comments[1].end_line, 3);
        assert!(!lexed.tokens.iter().any(|t| t.text == "key"));
    }

    #[test]
    fn doc_comment_examples_are_comments() {
        let lexed = lex("/// let k = v.expect(\"x\");\nfn real() {}");
        assert!(!lexed.tokens.iter().any(|t| t.text == "expect"));
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let lits = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn ranges_are_not_floats() {
        assert_eq!(texts("0..n"), vec!["0", ".", ".", "n"]);
        assert_eq!(texts("12.5"), vec!["12.5"]);
    }

    #[test]
    fn line_numbers_track() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ token");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "token");
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        // `r#fn` once lexed as an unterminated raw string and swallowed
        // the rest of the file.
        assert_eq!(
            texts("let r#fn = 1; after"),
            vec!["let", "fn", "=", "1", ";", "after"]
        );
    }

    #[test]
    fn fused_operators() {
        assert_eq!(
            texts("a && b || c -> d => e::f"),
            vec!["a", "&&", "b", "||", "c", "->", "d", "=>", "e", "::", "f"]
        );
        // Shifts stay split so `Vec<Vec<u8>>` closes two generic lists.
        assert_eq!(texts("x >> 2"), vec!["x", ">", ">", "2"]);
    }

    #[test]
    fn raw_string_hashes_round_trip_with_lines() {
        let lexed = lex("let a = r##\"one \"# two\nthree\"##;\nnext");
        let lit = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Literal)
            .unwrap();
        assert_eq!(lit.text, "one \"# two\nthree");
        assert_eq!(lit.line, 1);
        let next = lexed.tokens.iter().find(|t| t.text == "next").unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn lifetime_lines_round_trip() {
        let lexed = lex("fn f<'a>(\n    x: &'a str,\n) {}");
        let lt: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lt.len(), 2);
        assert_eq!(lt[0].line, 1);
        assert_eq!(lt[1].line, 2);
        assert_eq!(lt[0].text, "'a");
    }
}
