//! A lightweight, tolerant item/expression parser over the lexer's token
//! stream.
//!
//! The dataflow rules need more structure than a flat token stream: which
//! function a cast lives in, what a `let` binds, whether a lock guard is
//! still in scope. This module provides exactly that — a recursive-descent
//! parser producing a small AST with per-function bodies — and nothing
//! more. It is *tolerant*: anything it cannot parse degrades to
//! [`ExprKind::Unknown`] (advancing at least one token, so parsing always
//! terminates) instead of failing, which is the right trade-off for a lint
//! pass that must survive every file in the workspace.
//!
//! Deliberate approximations, shared with the rules that consume the AST:
//! operator precedence is flattened (all binary operators are parsed
//! left-associatively at one level — `as` casts and postfix calls still
//! bind tightest, which is what the cast and taint rules care about), and
//! patterns are reduced to the lowercase identifiers they bind.

use crate::lexer::{Token, TokenKind};

/// Inclusive token-index span `[start, end]`.
pub type Span = (usize, usize);

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Function definitions with bodies, in source order. Methods are
    /// named `Type::method`.
    pub fns: Vec<FnDef>,
    /// Struct definitions with derives and fields.
    pub structs: Vec<StructDef>,
    /// Targets of `impl Drop for X`.
    pub drop_impls: Vec<String>,
}

/// One struct definition.
#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    /// Token index of the `struct` keyword (for test-span lookups).
    pub tok: usize,
    pub derives: Vec<String>,
    /// `(field_name, rendered_type)`; tuple fields have an empty name.
    pub fields: Vec<(String, String)>,
}

/// One function with a body.
#[derive(Debug)]
pub struct FnDef {
    /// `name` or `Type::name` for methods.
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword (for test-span lookups).
    pub tok: usize,
    /// `(param_name, rendered_type)`; `self` and pattern params omitted.
    pub params: Vec<(String, String)>,
    pub body: Block,
}

/// A `{ ... }` block.
#[derive(Debug)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    Let {
        /// The bound name when the pattern is a plain (possibly `mut`)
        /// identifier.
        name: Option<String>,
        /// Every lowercase identifier the pattern binds (destructurings).
        names: Vec<String>,
        /// Rendered type annotation, if written.
        ty: Option<String>,
        init: Option<Expr>,
        /// `let ... else { ... }` diverging block.
        else_block: Option<Block>,
        line: u32,
    },
    Expr(Expr),
}

/// One expression with its source line and token span.
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
    pub span: Span,
}

#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` (turbofish args skipped).
    Path(Vec<String>),
    /// Any literal token.
    Lit,
    /// `name!(args)`; the span covers the whole invocation, so literal
    /// tokens inside it can be re-scanned for format captures.
    Macro {
        name: String,
        args: Vec<Expr>,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
    },
    Field {
        recv: Box<Expr>,
        name: String,
    },
    Index {
        recv: Box<Expr>,
        index: Box<Expr>,
    },
    /// `expr as ty` with the rendered target type.
    Cast {
        expr: Box<Expr>,
        ty: String,
    },
    /// Any prefix operator (`&`, `&mut`, `*`, `!`, `-`).
    Unary {
        expr: Box<Expr>,
    },
    Binary {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Plain and compound assignment.
    Assign {
        target: Box<Expr>,
        value: Box<Expr>,
    },
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    /// The `let PAT = scrut` condition of `if let` / `while let`,
    /// reduced to the names the pattern binds.
    LetCond {
        names: Vec<String>,
        scrut: Box<Expr>,
    },
    Match {
        scrut: Box<Expr>,
        arms: Vec<Arm>,
    },
    Loop {
        body: Block,
    },
    While {
        cond: Box<Expr>,
        body: Block,
    },
    For {
        names: Vec<String>,
        iter: Box<Expr>,
        body: Block,
    },
    BlockExpr(Block),
    Closure {
        body: Box<Expr>,
    },
    /// `expr?`.
    Try {
        expr: Box<Expr>,
    },
    /// Tuple or array literal.
    Tuple {
        items: Vec<Expr>,
    },
    StructLit {
        path: String,
        fields: Vec<(String, Expr)>,
    },
    Return {
        value: Option<Box<Expr>>,
    },
    Break,
    Continue,
    /// Anything the parser gave up on (at least one token consumed).
    Unknown,
}

/// One match arm: the names its pattern binds and the arm body.
#[derive(Debug)]
pub struct Arm {
    pub names: Vec<String>,
    pub body: Expr,
}

/// Parses one file's token stream.
pub fn parse(tokens: &[Token]) -> Ast {
    let mut p = Parser {
        t: tokens,
        pos: 0,
        ast: Ast::default(),
        no_struct_lit: false,
        depth: 0,
    };
    p.items(tokens.len(), "");
    p.ast
}

/// Index of the token matching the opener at `open_idx` (same-text
/// counting, so only call it positioned on `open`).
pub(crate) fn matching(
    tokens: &[Token],
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
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

/// Expression nesting bound: beyond this the parser degrades to Unknown
/// tokens rather than risking stack overflow on pathological input.
const MAX_DEPTH: u32 = 200;

struct Parser<'t> {
    t: &'t [Token],
    pos: usize,
    ast: Ast,
    /// True while parsing `if`/`while`/`match`/`for` heads, where `Path {`
    /// is a block, not a struct literal.
    no_struct_lit: bool,
    depth: u32,
}

impl<'t> Parser<'t> {
    // -- token cursor helpers ------------------------------------------------

    fn text(&self, ahead: usize) -> &str {
        self.t.get(self.pos + ahead).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, ahead: usize) -> Option<TokenKind> {
        self.t.get(self.pos + ahead).map(|t| t.kind)
    }

    fn line_here(&self) -> u32 {
        self.t
            .get(self.pos.min(self.t.len().saturating_sub(1)))
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_ident(&self, s: &str) -> bool {
        self.kind(0) == Some(TokenKind::Ident) && self.text(0) == s
    }

    fn mk(&self, kind: ExprKind, start: usize) -> Expr {
        let end = self.pos.saturating_sub(1).max(start);
        Expr {
            kind,
            line: self.t.get(start).map_or(1, |t| t.line),
            span: (start, end),
        }
    }

    /// Skips one `#[...]` / `#![...]` attribute if positioned on `#`;
    /// returns the derive idents if it was a `#[derive(...)]`.
    fn skip_attr(&mut self) -> Vec<String> {
        if self.text(0) != "#" {
            return Vec::new();
        }
        let mut open = self.pos + 1;
        if self.text(1) == "!" {
            open += 1;
        }
        if self.t.get(open).map_or(true, |t| t.text != "[") {
            self.bump();
            return Vec::new();
        }
        let Some(end) = matching(self.t, open, "[", "]") else {
            self.pos = self.t.len();
            return Vec::new();
        };
        let body = &self.t[open + 1..end];
        let derives = if body.first().map_or(false, |t| t.text == "derive") {
            body.iter()
                .skip(1)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
                .collect()
        } else {
            Vec::new()
        };
        self.pos = end + 1;
        derives
    }

    // -- items ---------------------------------------------------------------

    fn items(&mut self, end: usize, prefix: &str) {
        let mut derives: Vec<String> = Vec::new();
        while self.pos < end {
            let before = self.pos;
            if self.text(0) == "#" {
                let d = self.skip_attr();
                if !d.is_empty() {
                    derives = d;
                }
                continue;
            }
            if self.kind(0) == Some(TokenKind::Ident) {
                match self.text(0) {
                    "struct" => {
                        self.struct_item(std::mem::take(&mut derives), end);
                        continue;
                    }
                    "fn" => {
                        derives.clear();
                        self.fn_item(prefix, end);
                        continue;
                    }
                    "impl" => {
                        derives.clear();
                        self.impl_item(end);
                        continue;
                    }
                    "mod" => {
                        derives.clear();
                        self.bump();
                        if self.kind(0) == Some(TokenKind::Ident) {
                            self.bump();
                        }
                        if self.text(0) == "{" {
                            let close = matching(self.t, self.pos, "{", "}")
                                .unwrap_or(self.t.len().saturating_sub(1));
                            self.bump();
                            self.items(close.min(end), prefix);
                            self.pos = close + 1;
                        } else if self.text(0) == ";" {
                            self.bump();
                        }
                        continue;
                    }
                    "enum" | "trait" | "union" | "macro_rules" => {
                        derives.clear();
                        self.skip_braced_item(end);
                        continue;
                    }
                    "const" | "static" if self.text(1) != "fn" => {
                        derives.clear();
                        self.skip_to_semi(end);
                        continue;
                    }
                    "use" | "type" | "extern" => {
                        derives.clear();
                        self.skip_to_semi(end);
                        continue;
                    }
                    _ => {}
                }
            }
            self.bump();
            if self.pos == before {
                self.bump();
            }
        }
    }

    /// Skips an item whose body is the next top-level `{...}` (or that
    /// ends at `;` first).
    fn skip_braced_item(&mut self, end: usize) {
        self.bump(); // the keyword
        while self.pos < end {
            match self.text(0) {
                "{" => {
                    let close =
                        matching(self.t, self.pos, "{", "}").unwrap_or(end.saturating_sub(1));
                    self.pos = close + 1;
                    return;
                }
                ";" => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    fn skip_to_semi(&mut self, end: usize) {
        let mut brace = 0i32;
        while self.pos < end {
            match self.text(0) {
                "{" => brace += 1,
                "}" => brace -= 1,
                ";" if brace <= 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips a balanced `<...>` generic list if positioned on `<`.
    fn skip_generics(&mut self) {
        if self.text(0) != "<" {
            return;
        }
        let mut depth = 0i32;
        while self.pos < self.t.len() {
            match self.text(0) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                ";" | "{" => return, // damaged input: bail before the body
                _ => {}
            }
            self.bump();
        }
    }

    fn struct_item(&mut self, derives: Vec<String>, end: usize) {
        let tok = self.pos;
        let line = self.t[tok].line;
        self.bump(); // `struct`
        if self.kind(0) != Some(TokenKind::Ident) {
            return;
        }
        let name = self.text(0).to_string();
        self.bump();
        self.skip_generics();
        // Skip a where-clause up to the body.
        while self.pos < end && !matches!(self.text(0), "{" | "(" | ";") {
            self.bump();
        }
        let mut fields = Vec::new();
        match self.text(0) {
            "{" => {
                let close = matching(self.t, self.pos, "{", "}").unwrap_or(end.saturating_sub(1));
                let mut j = self.pos + 1;
                while j < close {
                    while j < close && self.t[j].text == "#" {
                        match matching(self.t, j + 1, "[", "]") {
                            Some(e) => j = e + 1,
                            None => break,
                        }
                    }
                    if self.t.get(j).map_or(false, |t| t.text == "pub") {
                        j += 1;
                        if self.t.get(j).map_or(false, |t| t.text == "(") {
                            match matching(self.t, j, "(", ")") {
                                Some(e) => j = e + 1,
                                None => break,
                            }
                        }
                    }
                    if j >= close || self.t[j].kind != TokenKind::Ident {
                        break;
                    }
                    let fname = self.t[j].text.clone();
                    j += 1;
                    if self.t.get(j).map_or(true, |t| t.text != ":") {
                        break;
                    }
                    j += 1;
                    let (ty, next) = read_type(self.t, j, close);
                    fields.push((fname, ty));
                    j = next;
                    if self.t.get(j).map_or(false, |t| t.text == ",") {
                        j += 1;
                    }
                }
                self.pos = close + 1;
            }
            "(" => {
                let close = matching(self.t, self.pos, "(", ")").unwrap_or(end.saturating_sub(1));
                let mut j = self.pos + 1;
                while j < close {
                    while j < close && self.t[j].text == "#" {
                        match matching(self.t, j + 1, "[", "]") {
                            Some(e) => j = e + 1,
                            None => break,
                        }
                    }
                    if self.t.get(j).map_or(false, |t| t.text == "pub") {
                        j += 1;
                        if self.t.get(j).map_or(false, |t| t.text == "(") {
                            match matching(self.t, j, "(", ")") {
                                Some(e) => j = e + 1,
                                None => break,
                            }
                        }
                    }
                    let (ty, next) = read_type(self.t, j, close);
                    if ty.is_empty() {
                        break;
                    }
                    fields.push((String::new(), ty));
                    j = next;
                    if self.t.get(j).map_or(false, |t| t.text == ",") {
                        j += 1;
                    }
                }
                self.pos = close + 1;
                if self.text(0) == ";" {
                    self.bump();
                }
            }
            _ => {
                if self.text(0) == ";" {
                    self.bump();
                }
            }
        }
        self.ast.structs.push(StructDef {
            name,
            line,
            tok,
            derives,
            fields,
        });
    }

    fn impl_item(&mut self, end: usize) {
        self.bump(); // `impl`
        self.skip_generics();
        let (first, saw_for) = self.impl_type_name(end);
        let type_name = if saw_for {
            self.bump(); // `for`
            let (second, _) = self.impl_type_name(end);
            if first.as_deref() == Some("Drop") {
                if let Some(t) = &second {
                    self.ast.drop_impls.push(t.clone());
                }
            }
            second
        } else {
            first
        };
        // Skip a where-clause up to the body.
        while self.pos < end && !matches!(self.text(0), "{" | ";") {
            self.bump();
        }
        if self.text(0) == "{" {
            let close = matching(self.t, self.pos, "{", "}").unwrap_or(end.saturating_sub(1));
            self.bump();
            let prefix = type_name.map_or(String::new(), |t| format!("{t}::"));
            self.items(close.min(end), &prefix);
            self.pos = close + 1;
        } else if self.text(0) == ";" {
            self.bump();
        }
    }

    /// Reads a trait/type path in an impl head, returning its last
    /// depth-0 identifier and whether the scan stopped at `for`.
    fn impl_type_name(&mut self, end: usize) -> (Option<String>, bool) {
        let mut name = None;
        let mut angle = 0i32;
        while self.pos < end {
            match self.text(0) {
                "for" if angle == 0 => return (name, true),
                "where" | "{" | ";" if angle == 0 => return (name, false),
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {
                    if angle == 0 && self.kind(0) == Some(TokenKind::Ident) {
                        name = Some(self.text(0).to_string());
                    }
                }
            }
            self.bump();
        }
        (name, false)
    }

    fn fn_item(&mut self, prefix: &str, end: usize) {
        let tok = self.pos;
        let line = self.t[tok].line;
        self.bump(); // `fn`
        if self.kind(0) != Some(TokenKind::Ident) {
            return;
        }
        let name = format!("{prefix}{}", self.text(0));
        self.bump();
        self.skip_generics();
        let mut params = Vec::new();
        if self.text(0) == "(" {
            let close = matching(self.t, self.pos, "(", ")").unwrap_or(end.saturating_sub(1));
            let mut j = self.pos + 1;
            while j < close {
                while j < close && self.t[j].text == "#" {
                    match matching(self.t, j + 1, "[", "]") {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                while j < close && matches!(self.t[j].text.as_str(), "mut" | "ref") {
                    j += 1;
                }
                let named = j + 1 < close
                    && self.t[j].kind == TokenKind::Ident
                    && self.t[j + 1].text == ":";
                if named {
                    let pname = self.t[j].text.clone();
                    let (ty, next) = read_type(self.t, j + 2, close);
                    params.push((pname, ty));
                    j = next;
                } else {
                    // `self` forms and pattern params: skip to the comma.
                    let (_, next) = read_type(self.t, j, close);
                    j = next;
                }
                if self.t.get(j).map_or(false, |t| t.text == ",") {
                    j += 1;
                }
            }
            self.pos = close + 1;
        }
        // Return type / where clause up to the body (or `;` for a
        // bodyless trait-method signature).
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while self.pos < end {
            match self.text(0) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => break,
                ";" if paren == 0 && bracket == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
        if self.text(0) != "{" {
            return;
        }
        let body = self.block();
        self.ast.fns.push(FnDef {
            name,
            line,
            tok,
            params,
            body,
        });
    }

    // -- statements ----------------------------------------------------------

    /// Parses a `{ ... }` block; the caller must be positioned on `{`.
    fn block(&mut self) -> Block {
        let start = self.pos;
        let close = matching(self.t, self.pos, "{", "}").unwrap_or(self.t.len());
        self.bump(); // `{`
        let saved = std::mem::replace(&mut self.no_struct_lit, false);
        let mut stmts = Vec::new();
        while self.pos < close {
            let before = self.pos;
            if self.text(0) == ";" {
                self.bump();
                continue;
            }
            if self.text(0) == "#" {
                self.skip_attr();
                continue;
            }
            if self.kind(0) == Some(TokenKind::Ident) {
                match self.text(0) {
                    "let" => {
                        stmts.push(self.let_stmt(close));
                        continue;
                    }
                    "fn" => {
                        self.fn_item("", close);
                        if self.pos == before {
                            self.bump();
                        }
                        continue;
                    }
                    "struct" => {
                        self.struct_item(Vec::new(), close);
                        if self.pos == before {
                            self.bump();
                        }
                        continue;
                    }
                    "impl" => {
                        self.impl_item(close);
                        if self.pos == before {
                            self.bump();
                        }
                        continue;
                    }
                    "use" | "const" | "static" | "type" => {
                        self.skip_to_semi(close);
                        if self.pos == before {
                            self.bump();
                        }
                        continue;
                    }
                    "mod" | "trait" | "enum" | "union" | "macro_rules" => {
                        self.skip_braced_item(close);
                        if self.pos == before {
                            self.bump();
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            let e = self.expr();
            stmts.push(Stmt::Expr(e));
            if self.text(0) == ";" {
                self.bump();
            }
            if self.pos == before {
                self.bump();
            }
        }
        self.pos = close.saturating_add(1).min(self.t.len());
        self.no_struct_lit = saved;
        Block {
            stmts,
            span: (start, close.min(self.t.len().saturating_sub(1))),
        }
    }

    fn let_stmt(&mut self, end: usize) -> Stmt {
        let line = self.line_here();
        self.bump(); // `let`
        let pat_start = self.pos;
        let mut depth = 0i32;
        while self.pos < end {
            match self.text(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ":" | "=" | ";" if depth <= 0 => break,
                _ => {}
            }
            self.bump();
        }
        let pat = &self.t[pat_start..self.pos];
        let names = pattern_names(pat);
        let name = match pat {
            [only] if only.kind == TokenKind::Ident => Some(only.text.clone()),
            [m, only] if m.text == "mut" && only.kind == TokenKind::Ident => {
                Some(only.text.clone())
            }
            _ => None,
        };
        let mut ty = None;
        if self.text(0) == ":" {
            self.bump();
            let ty_start = self.pos;
            let mut angle = 0i32;
            let mut bracket = 0i32;
            let mut paren = 0i32;
            while self.pos < end {
                match self.text(0) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "=" | ";" if angle <= 0 && bracket <= 0 && paren <= 0 => break,
                    _ => {}
                }
                self.bump();
            }
            ty = Some(render_tokens(&self.t[ty_start..self.pos]));
        }
        let mut init = None;
        if self.text(0) == "=" {
            self.bump();
            init = Some(self.expr());
        }
        let mut else_block = None;
        if self.at_ident("else") {
            self.bump();
            if self.text(0) == "{" {
                else_block = Some(self.block());
            }
        }
        if self.text(0) == ";" {
            self.bump();
        }
        Stmt::Let {
            name,
            names,
            ty,
            init,
            else_block,
            line,
        }
    }

    // -- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Expr {
        let start = self.pos;
        let lhs = self.binary();
        if self.text(0) == "=" {
            self.bump();
            let value = self.expr();
            return self.mk(
                ExprKind::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                },
                start,
            );
        }
        lhs
    }

    /// Parses an `if`/`while`/`match`/`for` head expression, where `{`
    /// always starts the body, never a struct literal.
    fn head_expr(&mut self) -> Expr {
        let saved = std::mem::replace(&mut self.no_struct_lit, true);
        let e = self.expr();
        self.no_struct_lit = saved;
        e
    }

    fn binary(&mut self) -> Expr {
        let start = self.pos;
        let mut lhs = self.unary();
        loop {
            let t0 = self.text(0);
            // Ranges: the lexer leaves `..` as two `.` tokens.
            if t0 == "." && self.text(1) == "." {
                self.bump();
                self.bump();
                if self.text(0) == "=" {
                    self.bump();
                }
                let hi = if self.starts_expr() {
                    Some(Box::new(self.unary()))
                } else {
                    None
                };
                lhs = self.mk(
                    ExprKind::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                    },
                    start,
                );
                continue;
            }
            // Compound assignment: the lexer leaves `+=` etc. as two tokens.
            if matches!(t0, "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|") && self.text(1) == "=" {
                self.bump();
                self.bump();
                let value = self.expr();
                return self.mk(
                    ExprKind::Assign {
                        target: Box::new(lhs),
                        value: Box::new(value),
                    },
                    start,
                );
            }
            let is_op = matches!(
                t0,
                "+" | "-"
                    | "*"
                    | "/"
                    | "%"
                    | "^"
                    | "&"
                    | "|"
                    | "<"
                    | ">"
                    | "<="
                    | ">="
                    | "=="
                    | "!="
                    | "&&"
                    | "||"
            );
            if !is_op {
                break;
            }
            let op = t0.to_string();
            self.bump();
            let rhs = self.unary();
            lhs = self.mk(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                start,
            );
        }
        lhs
    }

    /// True when the current token can begin an expression.
    fn starts_expr(&self) -> bool {
        if self.pos >= self.t.len() {
            return false;
        }
        !matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "=>" | "=" | "{")
            && !matches!(self.text(0), "else" | "in" | "as")
    }

    fn unary(&mut self) -> Expr {
        if self.depth >= MAX_DEPTH {
            let start = self.pos;
            if self.pos < self.t.len() {
                self.bump();
            }
            return self.mk(ExprKind::Unknown, start);
        }
        self.depth += 1;
        let e = self.unary_inner();
        self.depth -= 1;
        e
    }

    fn unary_inner(&mut self) -> Expr {
        let start = self.pos;
        match self.text(0) {
            "&" => {
                self.bump();
                if self.at_ident("mut") {
                    self.bump();
                }
                let inner = self.unary();
                return self.mk(
                    ExprKind::Unary {
                        expr: Box::new(inner),
                    },
                    start,
                );
            }
            "*" | "!" | "-" => {
                self.bump();
                let inner = self.unary();
                return self.mk(
                    ExprKind::Unary {
                        expr: Box::new(inner),
                    },
                    start,
                );
            }
            "||" => {
                // Zero-parameter closure.
                self.bump();
                let body = self.expr();
                return self.mk(
                    ExprKind::Closure {
                        body: Box::new(body),
                    },
                    start,
                );
            }
            "|" => {
                // Closure parameter list: scan to the closing `|`.
                self.bump();
                let mut depth = 0i32;
                while self.pos < self.t.len() {
                    match self.text(0) {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "|" if depth <= 0 => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    self.bump();
                }
                let saved = std::mem::replace(&mut self.no_struct_lit, false);
                let body = self.expr();
                self.no_struct_lit = saved;
                return self.mk(
                    ExprKind::Closure {
                        body: Box::new(body),
                    },
                    start,
                );
            }
            _ => {}
        }
        if self.at_ident("move") {
            self.bump();
            return self.unary_inner();
        }
        let primary = self.primary();
        self.postfix(primary, start)
    }

    fn primary(&mut self) -> Expr {
        let start = self.pos;
        let Some(kind) = self.kind(0) else {
            return self.mk(ExprKind::Unknown, start);
        };
        match kind {
            TokenKind::Literal => {
                self.bump();
                self.mk(ExprKind::Lit, start)
            }
            TokenKind::Lifetime => {
                // Loop label: `'outer: loop { ... }`.
                self.bump();
                if self.text(0) == ":" {
                    self.bump();
                }
                self.primary()
            }
            TokenKind::Punct => match self.text(0) {
                "(" => {
                    self.bump();
                    let mut items = self.expr_list(")");
                    // A one-element list is a parenthesized expression:
                    // grouping is transparent, only the span widens.
                    let mut e = if items.len() == 1 {
                        match items.pop() {
                            Some(inner) => inner,
                            None => self.mk(ExprKind::Unknown, start),
                        }
                    } else {
                        self.mk(ExprKind::Tuple { items }, start)
                    };
                    e.span = (start, self.pos.saturating_sub(1).max(start));
                    e
                }
                "[" => {
                    self.bump();
                    let items = self.expr_list("]");
                    self.mk(ExprKind::Tuple { items }, start)
                }
                "{" => {
                    let b = self.block();
                    self.mk(ExprKind::BlockExpr(b), start)
                }
                _ => {
                    // A closer (`)`, `}`, `,`, ...) never starts an
                    // expression: report Unknown without consuming so
                    // enclosing list parsers stay synchronized.
                    if matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "=>") {
                        return self.mk(ExprKind::Unknown, start);
                    }
                    self.bump();
                    self.mk(ExprKind::Unknown, start)
                }
            },
            TokenKind::Ident => match self.text(0) {
                "if" => self.if_expr(),
                "while" => {
                    self.bump();
                    let cond = if self.at_ident("let") {
                        self.let_cond()
                    } else {
                        self.head_expr()
                    };
                    let body = if self.text(0) == "{" {
                        self.block()
                    } else {
                        Block {
                            stmts: Vec::new(),
                            span: (self.pos, self.pos),
                        }
                    };
                    self.mk(
                        ExprKind::While {
                            cond: Box::new(cond),
                            body,
                        },
                        start,
                    )
                }
                "loop" => {
                    self.bump();
                    let body = if self.text(0) == "{" {
                        self.block()
                    } else {
                        Block {
                            stmts: Vec::new(),
                            span: (self.pos, self.pos),
                        }
                    };
                    self.mk(ExprKind::Loop { body }, start)
                }
                "for" => {
                    self.bump();
                    let pat_start = self.pos;
                    let mut depth = 0i32;
                    while self.pos < self.t.len() {
                        match self.text(0) {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "in" if depth <= 0 => break,
                            "{" => break, // damaged input
                            _ => {}
                        }
                        self.bump();
                    }
                    let names = pattern_names(&self.t[pat_start..self.pos]);
                    if self.at_ident("in") {
                        self.bump();
                    }
                    let iter = self.head_expr();
                    let body = if self.text(0) == "{" {
                        self.block()
                    } else {
                        Block {
                            stmts: Vec::new(),
                            span: (self.pos, self.pos),
                        }
                    };
                    self.mk(
                        ExprKind::For {
                            names,
                            iter: Box::new(iter),
                            body,
                        },
                        start,
                    )
                }
                "match" => self.match_expr(),
                "return" => {
                    self.bump();
                    let value = if self.starts_expr() {
                        Some(Box::new(self.expr()))
                    } else {
                        None
                    };
                    self.mk(ExprKind::Return { value }, start)
                }
                "break" => {
                    self.bump();
                    if self.kind(0) == Some(TokenKind::Lifetime) {
                        self.bump();
                    }
                    if self.starts_expr() {
                        // `break value`: the value is consumed (kept in the
                        // token span) but not modeled.
                        let _ = self.expr();
                    }
                    self.mk(ExprKind::Break, start)
                }
                "continue" => {
                    self.bump();
                    if self.kind(0) == Some(TokenKind::Lifetime) {
                        self.bump();
                    }
                    self.mk(ExprKind::Continue, start)
                }
                "unsafe" | "async" => {
                    self.bump();
                    if self.text(0) == "{" {
                        let b = self.block();
                        self.mk(ExprKind::BlockExpr(b), start)
                    } else {
                        self.mk(ExprKind::Unknown, start)
                    }
                }
                _ => self.path_expr(),
            },
        }
    }

    fn if_expr(&mut self) -> Expr {
        let start = self.pos;
        self.bump(); // `if`
        let cond = if self.at_ident("let") {
            self.let_cond()
        } else {
            self.head_expr()
        };
        let then = if self.text(0) == "{" {
            self.block()
        } else {
            Block {
                stmts: Vec::new(),
                span: (self.pos, self.pos),
            }
        };
        let mut els = None;
        if self.at_ident("else") {
            self.bump();
            if self.at_ident("if") {
                els = Some(Box::new(self.if_expr()));
            } else if self.text(0) == "{" {
                let b_start = self.pos;
                let b = self.block();
                els = Some(Box::new(self.mk(ExprKind::BlockExpr(b), b_start)));
            }
        }
        self.mk(
            ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
            start,
        )
    }

    /// Parses the `let PAT = scrut` condition of `if let` / `while let`;
    /// the caller is positioned on `let`.
    fn let_cond(&mut self) -> Expr {
        let start = self.pos;
        self.bump(); // `let`
        let pat_start = self.pos;
        let mut depth = 0i32;
        while self.pos < self.t.len() {
            match self.text(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth <= 0 => break,
                _ => {}
            }
            self.bump();
        }
        let names = pattern_names(&self.t[pat_start..self.pos]);
        if self.text(0) == "=" {
            self.bump();
        }
        let scrut = self.head_expr();
        self.mk(
            ExprKind::LetCond {
                names,
                scrut: Box::new(scrut),
            },
            start,
        )
    }

    fn match_expr(&mut self) -> Expr {
        let start = self.pos;
        self.bump(); // `match`
        let scrut = self.head_expr();
        let mut arms = Vec::new();
        if self.text(0) == "{" {
            let close = matching(self.t, self.pos, "{", "}").unwrap_or(self.t.len());
            self.bump();
            while self.pos < close {
                let before = self.pos;
                if self.text(0) == "#" {
                    self.skip_attr();
                    continue;
                }
                if self.text(0) == "," {
                    self.bump();
                    continue;
                }
                // Pattern (with optional guard) up to `=>`.
                let pat_start = self.pos;
                let mut depth = 0i32;
                while self.pos < close {
                    match self.text(0) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=>" if depth <= 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                let names = pattern_names(&self.t[pat_start..self.pos]);
                if self.text(0) == "=>" {
                    self.bump();
                }
                let saved = std::mem::replace(&mut self.no_struct_lit, false);
                let body = self.expr();
                self.no_struct_lit = saved;
                arms.push(Arm { names, body });
                if self.text(0) == "," {
                    self.bump();
                }
                if self.pos == before {
                    self.bump();
                }
            }
            self.pos = close.saturating_add(1).min(self.t.len());
        }
        self.mk(
            ExprKind::Match {
                scrut: Box::new(scrut),
                arms,
            },
            start,
        )
    }

    fn path_expr(&mut self) -> Expr {
        let start = self.pos;
        let mut segs = vec![self.text(0).to_string()];
        self.bump();
        while self.text(0) == "::" {
            if self.kind(1) == Some(TokenKind::Ident) {
                segs.push(self.text(1).to_string());
                self.bump();
                self.bump();
            } else if self.text(1) == "<" {
                // Turbofish: skip the generic arguments.
                self.bump();
                self.skip_generics();
            } else {
                self.bump();
                break;
            }
        }
        // Macro invocation.
        if self.text(0) == "!" && matches!(self.text(1), "(" | "[" | "{") {
            self.bump(); // `!`
            let name = segs.last().cloned().unwrap_or_default();
            let (open, closer) = match self.text(0) {
                "(" => ("(", ")"),
                "[" => ("[", "]"),
                _ => ("{", "}"),
            };
            let args = if open == "{" {
                // Brace macros (`macro_rules` bodies, `vec!{}`) are opaque.
                let close = matching(self.t, self.pos, "{", "}").unwrap_or(self.t.len());
                self.pos = close.saturating_add(1).min(self.t.len());
                Vec::new()
            } else {
                self.bump();
                self.expr_list(closer)
            };
            return self.mk(ExprKind::Macro { name, args }, start);
        }
        // Struct literal.
        let ctor_like = segs.last().map_or(false, |s| {
            s.chars().next().map_or(false, |c| c.is_uppercase())
        });
        if self.text(0) == "{" && !self.no_struct_lit && ctor_like {
            let close = matching(self.t, self.pos, "{", "}").unwrap_or(self.t.len());
            self.bump();
            let saved = std::mem::replace(&mut self.no_struct_lit, false);
            let mut fields = Vec::new();
            while self.pos < close {
                let before = self.pos;
                if self.text(0) == "#" {
                    self.skip_attr();
                    continue;
                }
                if self.text(0) == "," {
                    self.bump();
                    continue;
                }
                if self.text(0) == "." && self.text(1) == "." {
                    // `..base` functional update.
                    self.bump();
                    self.bump();
                    let _ = self.expr();
                    continue;
                }
                if self.kind(0) == Some(TokenKind::Ident) {
                    let fname = self.text(0).to_string();
                    let fline = self.line_here();
                    let fstart = self.pos;
                    self.bump();
                    let value = if self.text(0) == ":" {
                        self.bump();
                        self.expr()
                    } else {
                        // Shorthand `Struct { field }`.
                        Expr {
                            kind: ExprKind::Path(vec![fname.clone()]),
                            line: fline,
                            span: (fstart, fstart),
                        }
                    };
                    fields.push((fname, value));
                } else if self.pos == before {
                    self.bump();
                }
            }
            self.pos = close.saturating_add(1).min(self.t.len());
            self.no_struct_lit = saved;
            return self.mk(
                ExprKind::StructLit {
                    path: segs.join("::"),
                    fields,
                },
                start,
            );
        }
        self.mk(ExprKind::Path(segs), start)
    }

    fn postfix(&mut self, mut e: Expr, start: usize) -> Expr {
        loop {
            match self.text(0) {
                "." if self.text(1) != "." => {
                    if self.kind(1) == Some(TokenKind::Ident) {
                        let name = self.text(1).to_string();
                        if name == "await" {
                            self.bump();
                            self.bump();
                            continue;
                        }
                        // Method call when `(` (optionally after a
                        // turbofish) follows; field access otherwise.
                        let mut probe = self.pos + 2;
                        if self.t.get(probe).map_or(false, |t| t.text == "::") {
                            if self.t.get(probe + 1).map_or(false, |t| t.text == "<") {
                                if let Some(close) = angle_match(self.t, probe + 1) {
                                    probe = close + 1;
                                }
                            }
                        }
                        if self.t.get(probe).map_or(false, |t| t.text == "(") {
                            self.pos = probe + 1;
                            let args = self.expr_list(")");
                            e = self.mk(
                                ExprKind::MethodCall {
                                    recv: Box::new(e),
                                    method: name,
                                    args,
                                },
                                start,
                            );
                        } else {
                            self.bump();
                            self.bump();
                            e = self.mk(
                                ExprKind::Field {
                                    recv: Box::new(e),
                                    name,
                                },
                                start,
                            );
                        }
                        continue;
                    }
                    if self.kind(1) == Some(TokenKind::Literal) {
                        // Tuple index (`pair.0`).
                        let name = self.text(1).to_string();
                        self.bump();
                        self.bump();
                        e = self.mk(
                            ExprKind::Field {
                                recv: Box::new(e),
                                name,
                            },
                            start,
                        );
                        continue;
                    }
                    break;
                }
                "?" => {
                    self.bump();
                    e = self.mk(ExprKind::Try { expr: Box::new(e) }, start);
                }
                "(" => {
                    self.bump();
                    let args = self.expr_list(")");
                    e = self.mk(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        start,
                    );
                }
                "[" => {
                    self.bump();
                    let saved = std::mem::replace(&mut self.no_struct_lit, false);
                    let index = self.expr();
                    self.no_struct_lit = saved;
                    if self.text(0) == "]" {
                        self.bump();
                    }
                    e = self.mk(
                        ExprKind::Index {
                            recv: Box::new(e),
                            index: Box::new(index),
                        },
                        start,
                    );
                }
                "as" if self.kind(0) == Some(TokenKind::Ident) => {
                    self.bump();
                    let ty_start = self.pos;
                    // A cast target: path segments with optional generics,
                    // leading `&`/lifetimes tolerated.
                    while matches!(self.text(0), "&" | "mut")
                        || self.kind(0) == Some(TokenKind::Lifetime)
                    {
                        self.bump();
                    }
                    while self.kind(0) == Some(TokenKind::Ident)
                        && !matches!(self.text(0), "as" | "else" | "in" | "if" | "match")
                    {
                        self.bump();
                        if self.text(0) == "::" {
                            self.bump();
                            continue;
                        }
                        if self.text(0) == "<" {
                            self.skip_generics();
                        }
                        break;
                    }
                    let ty = render_tokens(&self.t[ty_start..self.pos]);
                    e = self.mk(
                        ExprKind::Cast {
                            expr: Box::new(e),
                            ty,
                        },
                        start,
                    );
                }
                _ => break,
            }
        }
        e
    }

    /// Parses a comma-separated expression list, consuming the closer.
    fn expr_list(&mut self, closer: &str) -> Vec<Expr> {
        let saved = std::mem::replace(&mut self.no_struct_lit, false);
        let mut items = Vec::new();
        while self.pos < self.t.len() && self.text(0) != closer {
            let before = self.pos;
            if matches!(self.text(0), "," | ";") {
                self.bump();
                continue;
            }
            items.push(self.expr());
            if self.pos == before {
                self.bump();
            }
        }
        if self.text(0) == closer {
            self.bump();
        }
        self.no_struct_lit = saved;
        items
    }
}

/// Matches a `<...>` list opened at `open_idx`, honoring nesting.
fn angle_match(tokens: &[Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            ";" | "{" => return None,
            _ => {}
        }
    }
    None
}

/// Reads a type starting at `start`, stopping at a top-level `,` or at
/// `end`. Returns the rendered type and the index of the stopping token.
pub(crate) fn read_type(tokens: &[Token], start: usize, end: usize) -> (String, usize) {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut ty = String::new();
    let mut j = start;
    while j < end {
        let text = tokens[j].text.as_str();
        match text {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "," if angle == 0 && paren == 0 && bracket == 0 => break,
            _ => {}
        }
        ty.push_str(text);
        j += 1;
    }
    (ty, j)
}

/// Concatenates token texts (the rendering used for types).
fn render_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        out.push_str(&t.text);
    }
    out
}

/// The lowercase identifiers a pattern binds: plain bindings survive,
/// constructors (`Some`, `ErrorKind::...`), keywords, and path prefixes
/// (`io` in `io::ErrorKind`) are dropped.
fn pattern_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let lower_start = t
            .text
            .chars()
            .next()
            .map_or(false, |c| c.is_lowercase() || c == '_');
        if !lower_start || t.text == "_" {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "mut" | "ref" | "box" | "if" | "in" | "true" | "false"
        ) {
            continue;
        }
        // `io` in `io::ErrorKind::Interrupted` is a path, not a binding.
        if tokens.get(i + 1).map_or(false, |n| n.text == "::") {
            continue;
        }
        // `name:` inside a struct pattern renames the binding; keep the
        // field name out when it is immediately re-bound.
        if tokens.get(i + 1).map_or(false, |n| n.text == ":")
            && tokens
                .get(i + 2)
                .map_or(false, |n| n.kind == TokenKind::Ident)
        {
            continue;
        }
        if !names.contains(&t.text) {
            names.push(t.text.clone());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    fn only_fn(ast: &Ast) -> &FnDef {
        assert_eq!(ast.fns.len(), 1, "{:?}", ast.fns);
        &ast.fns[0]
    }

    #[test]
    fn fn_with_params_and_body() {
        let ast = parse_src("fn f(a: usize, total_bytes: u64) -> u64 { let x = a; x }");
        let f = only_fn(&ast);
        assert_eq!(f.name, "f");
        assert_eq!(
            f.params,
            vec![
                ("a".to_string(), "usize".to_string()),
                ("total_bytes".to_string(), "u64".to_string())
            ]
        );
        assert_eq!(f.body.stmts.len(), 2);
        match &f.body.stmts[0] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name.as_deref(), Some("x"));
                assert!(init.is_some());
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn methods_are_qualified() {
        let ast = parse_src("struct S { n: u32 }\nimpl S { fn get(&self) -> u32 { self.n } }");
        assert_eq!(ast.fns[0].name, "S::get");
        assert_eq!(
            ast.structs[0].fields,
            vec![("n".to_string(), "u32".to_string())]
        );
    }

    #[test]
    fn drop_impls_recorded() {
        let ast = parse_src("impl Drop for Keys { fn drop(&mut self) {} }");
        assert_eq!(ast.drop_impls, vec!["Keys".to_string()]);
        assert_eq!(ast.fns[0].name, "Keys::drop");
    }

    #[test]
    fn casts_and_method_calls() {
        let ast = parse_src("fn f(v: Vec<u8>) { let n = v.len() as u32; }");
        let f = only_fn(&ast);
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[0] else {
            panic!("let expected");
        };
        let ExprKind::Cast { expr, ty } = &e.kind else {
            panic!("cast expected, got {:?}", e.kind);
        };
        assert_eq!(ty, "u32");
        assert!(matches!(&expr.kind, ExprKind::MethodCall { method, .. } if method == "len"));
    }

    #[test]
    fn loops_and_conditions() {
        let ast = parse_src(
            "fn f() { loop { break; } while x < 10 { x += 1; } for i in 0..n { use_it(i); } }",
        );
        let f = only_fn(&ast);
        assert_eq!(f.body.stmts.len(), 3);
        assert!(matches!(
            &f.body.stmts[0],
            Stmt::Expr(Expr {
                kind: ExprKind::Loop { .. },
                ..
            })
        ));
        assert!(matches!(
            &f.body.stmts[1],
            Stmt::Expr(Expr {
                kind: ExprKind::While { .. },
                ..
            })
        ));
        let Stmt::Expr(Expr {
            kind: ExprKind::For { names, .. },
            ..
        }) = &f.body.stmts[2]
        else {
            panic!("for expected");
        };
        assert_eq!(names, &vec!["i".to_string()]);
    }

    #[test]
    fn if_let_binds_pattern_names() {
        let ast = parse_src("fn f() { if let Some(k) = lookup() { use_it(k); } }");
        let f = only_fn(&ast);
        let Stmt::Expr(Expr {
            kind: ExprKind::If { cond, .. },
            ..
        }) = &f.body.stmts[0]
        else {
            panic!("if expected");
        };
        let ExprKind::LetCond { names, .. } = &cond.kind else {
            panic!("let-cond expected, got {:?}", cond.kind);
        };
        assert_eq!(names, &vec!["k".to_string()]);
    }

    #[test]
    fn match_arms_bind_names() {
        let ast = parse_src(
            "fn f() { match r { Ok(v) => use_it(v), Err(e) if e.fatal() => die(e), _ => {} } }",
        );
        let f = only_fn(&ast);
        let Stmt::Expr(Expr {
            kind: ExprKind::Match { arms, .. },
            ..
        }) = &f.body.stmts[0]
        else {
            panic!("match expected");
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].names, vec!["v".to_string()]);
        assert!(arms[1].names.contains(&"e".to_string()));
    }

    #[test]
    fn struct_literal_vs_block() {
        // In a head position `{` opens the body, not a literal.
        let ast = parse_src("fn f() { if ready { go(); } let c = Config { depth: 3 }; }");
        let f = only_fn(&ast);
        assert_eq!(f.body.stmts.len(), 2);
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[1] else {
            panic!("let expected");
        };
        let ExprKind::StructLit { path, fields } = &e.kind else {
            panic!("struct literal expected, got {:?}", e.kind);
        };
        assert_eq!(path, "Config");
        assert_eq!(fields[0].0, "depth");
    }

    #[test]
    fn macro_args_are_parsed() {
        let ast = parse_src("fn f() { println!(\"{} ok\", value); }");
        let f = only_fn(&ast);
        let Stmt::Expr(Expr {
            kind: ExprKind::Macro { name, args },
            ..
        }) = &f.body.stmts[0]
        else {
            panic!("macro expected");
        };
        assert_eq!(name, "println");
        assert_eq!(args.len(), 2);
        assert!(matches!(&args[1].kind, ExprKind::Path(p) if p == &vec!["value".to_string()]));
    }

    #[test]
    fn tolerates_garbage_and_terminates() {
        // Unbalanced and nonsense input must not hang or panic.
        let _ = parse_src("fn f( { ) } ] => :::: fn fn struct 7 let let");
        let _ = parse_src("fn f() { a.b.(c }");
        let _ = parse_src("impl { fn g() { match } }");
    }

    #[test]
    fn nested_items_are_found() {
        let ast = parse_src(
            "mod inner { pub struct Keys { words: Vec<u32> } impl Keys { fn rot(&self) {} } }",
        );
        assert_eq!(ast.structs.len(), 1);
        assert_eq!(ast.fns[0].name, "Keys::rot");
    }

    #[test]
    fn closures_and_try() {
        let ast = parse_src("fn f() -> R { let g = |x: u32| x + 1; let v = io()?; Ok(v) }");
        let f = only_fn(&ast);
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[0] else {
            panic!()
        };
        assert!(matches!(&e.kind, ExprKind::Closure { .. }));
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[1] else {
            panic!()
        };
        assert!(matches!(&e.kind, ExprKind::Try { .. }));
    }
}
