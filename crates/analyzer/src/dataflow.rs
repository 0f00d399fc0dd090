//! Per-file dataflow rules over the [`crate::ast`] layer. The two value
//! rules walk nothing themselves: the summary extractor
//! ([`crate::summaries`]) records each function's check sites in the same
//! walk that builds its facts — unchecked casts of lengths, values
//! reaching print macros, arguments passed to calls — and the rules here
//! resolve those sites against the interprocedural fixpoint. Taint thus
//! follows values through workspace callees by their summaries, and
//! through unresolved externs by the fallback in `resolve_calls` (the
//! callee-name heuristic, and a tainted argument taints the result).
//!
//! Each rule here encodes a bug class this repository actually shipped and
//! later fixed:
//!
//! * `lossy-len-cast` — PR 4's CBDF writer silently truncated a record
//!   length with `as u32`; the fix was `u32::try_from`. The rule tracks
//!   length-derived values (names like `len`/`offset`/`total_bytes`,
//!   `.len()` results) through bindings, assignments and arithmetic, and
//!   fires when one reaches a narrowing `as` cast (or a wide one reaches
//!   `as usize`) with no checked conversion or mask in between, here or
//!   inside a helper whose summary narrows that parameter.
//! * `secret-taint` — the lexical `secret-print` rule only sees secret
//!   *names*. This rule follows the value: a read of a secret-named field
//!   (or a call whose summary, or secret-named extern, returns key
//!   material) taints the value, and the taint survives renames
//!   (`let material = self.master_key;`) and spawn-closure captures all
//!   the way to a format/log sink or a helper that formats its argument.
//! * `unbounded-loop` — PR 3's scan loops honored cancel/deadline only
//!   once per caller window. In scan/pipeline/service code paths, a `loop`
//!   (or `while true`) with no `break`/`return`/`?` exit and no consult of
//!   a cancel/deadline/shutdown control is reported.
//! * `untimed-io` — PR 4's dumpd dropped blocking reads on
//!   `ErrorKind::Interrupted` and originally configured no read timeout.
//!   In service code, a socket read must live in a function that handles
//!   `Interrupted`, in a file that calls `set_read_timeout`.

use crate::ast::{Block, Expr, ExprKind, FnDef, Span, Stmt};
use crate::diag::Finding;
use crate::engine::{Analysis, FileKind};
use crate::lexer::TokenKind;
use crate::secrets;
use crate::summaries::{bits, CheckedFn};

/// Segments that mark a value as a length/offset/size (after
/// [`secrets::segments`] normalization, which lowercases and strips
/// plurals via [`secrets`]' singular rule at the comparison site).
pub(crate) const LEN_SEGS: &[&str] = &[
    "len",
    "length",
    "size",
    "count",
    "offset",
    "total",
    "remaining",
    "capacity",
    "limit",
];

/// Identifier segments that count as consulting a cancellation /
/// deadline / shutdown control inside a loop.
const CONTROL_SEGS: &[&str] = &[
    "tick",
    "cancel",
    "cancelled",
    "canceled",
    "deadline",
    "timeout",
    "shutdown",
    "stop",
    "stopped",
    "control",
    "ctrl",
    "interrupt",
    "interrupted",
    "running",
    "exit",
];

/// Path fragments that put a file in scope for `unbounded-loop`.
const LOOP_SCOPED_PATHS: &[&str] = &["service", "pipeline", "dumpd", "daemon", "server", "scan"];

/// Path fragments that put a file in scope for `untimed-io` (and for the
/// interprocedural `panic-reachability` / `blocking-in-worker` rules).
pub(crate) const IO_SCOPED_PATHS: &[&str] = &["service", "dumpd", "daemon", "server"];

/// Socket-ish receiver segments for `untimed-io`.
pub(crate) const SOCKET_SEGS: &[&str] = &[
    "stream",
    "socket",
    "sock",
    "conn",
    "connection",
    "tcp",
    "peer",
    "client",
    "listener",
];

/// Blocking read methods audited by `untimed-io`.
pub(crate) const READ_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
];

/// Files whose narrowing casts belong to `truncating-cast`, not
/// `lossy-len-cast` — the rules stay disjoint so one cast is never
/// reported twice. Shared with the summary extraction's `param_narrowed`
/// generation.
pub(crate) const LEN_CAST_EXEMPT: &[&str] =
    &["crates/dram/src/mapping.rs", "crates/dram/src/geometry.rs"];

pub(crate) fn seg_matches(ident: &str, set: &[&str]) -> bool {
    secrets::segments(ident)
        .iter()
        .any(|s| set.contains(&s.as_str()) || set.contains(&secrets::singular(s)))
}

fn fn_in_test(a: &Analysis, f: &FnDef) -> bool {
    a.in_test.get(f.tok).copied().unwrap_or(false)
}

/// Runs every dataflow rule that applies to `a`, whose functions' check
/// sites `fns` resolves, appending raw findings.
pub(crate) fn run(a: &Analysis, fns: &[CheckedFn], findings: &mut Vec<Finding>) {
    rule_lossy_len_cast(a, fns, findings);
    rule_secret_taint(a, fns, findings);
    rule_unbounded_loop(a, findings);
    rule_untimed_io(a, findings);
}

/// `lossy-len-cast`: a length reaches an `as` cast that can truncate it,
/// here or inside a callee whose summary narrows that parameter.
fn rule_lossy_len_cast(a: &Analysis, fns: &[CheckedFn], findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    // The DRAM address-arithmetic files are `truncating-cast`'s territory;
    // keeping the rules disjoint avoids double reports on one cast.
    if LEN_CAST_EXEMPT.contains(&a.path.as_str()) {
        return;
    }
    for f in fns {
        for cast in &f.sites.casts {
            if !f.is_len(&cast.len) {
                continue;
            }
            let ty = &cast.ty;
            let ident = first_ident_in(a, cast.operand);
            findings.push(Finding {
                file: a.path.clone(),
                line: cast.line,
                rule: "lossy-len-cast",
                message: format!(
                    "`as {ty}` on length-derived value `{ident}` can silently truncate; \
                     use `{ty}::try_from` (or mask/clamp first)"
                ),
                item: Some(ident),
            });
        }
        // Helper-mediated truncation: the callee's summary says it narrows
        // this parameter with an unchecked `as` cast, so passing a raw
        // length is the same bug as casting it here.
        for ((call, sum), args) in f.calls().iter().zip(&f.callees).zip(&f.sites.call_args) {
            let Some(sum) = sum else { continue };
            for i in bits(sum.param_narrowed) {
                let (Some(set), Some(&(span, _))) = (call.args_l.get(i), args.get(i)) else {
                    continue;
                };
                if !f.is_len(set) {
                    continue;
                }
                let ident = first_ident_in(a, span);
                let callee = call.callee.display();
                findings.push(Finding {
                    file: a.path.clone(),
                    line: call.line,
                    rule: "lossy-len-cast",
                    message: format!(
                        "length-derived value `{ident}` is narrowed by an unchecked `as` \
                         cast inside `{callee}`; convert with `try_from` before the call"
                    ),
                    item: Some(ident),
                });
            }
        }
    }
}

/// `secret-taint`: key material reaches a print sink through a value the
/// lexical `secret-print` rule cannot see — a renamed binding, a helper's
/// return value, or a callee whose summary formats that parameter.
fn rule_secret_taint(a: &Analysis, fns: &[CheckedFn], findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return;
    }
    for f in fns {
        for print in &f.sites.prints {
            let Some(r) = print.reach.iter().find(|r| f.is_secret(&r.t)) else {
                continue;
            };
            let src = f.origin(a, &r.t, r.src);
            let var = r.var.clone().unwrap_or_else(|| src.clone());
            let mac = &print.mac;
            findings.push(Finding {
                file: a.path.clone(),
                line: print.line,
                rule: "secret-taint",
                message: format!(
                    "`{var}` carries key material from `{src}` and reaches `{mac}!`; \
                     secrets must not be formatted, even renamed"
                ),
                item: Some(var),
            });
        }
        // A call whose callee summary says "this parameter reaches a
        // print/format sink" is itself a sink for key material.
        for ((call, sum), args) in f.calls().iter().zip(&f.callees).zip(&f.sites.call_args) {
            let Some(sum) = sum else { continue };
            let Some(i) = bits(sum.param_to_sink)
                .find(|&i| call.args_t.get(i).is_some_and(|s| f.is_secret(s)))
            else {
                continue;
            };
            let src = f.origin(a, &call.args_t[i], args.get(i).and_then(|&(_, src)| src));
            let callee = call.callee.display();
            findings.push(Finding {
                file: a.path.clone(),
                line: call.line,
                rule: "secret-taint",
                message: format!(
                    "key material from `{src}` flows into `{callee}`, which formats or \
                     logs that argument; secrets must not cross into print sinks"
                ),
                item: Some(src),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// unbounded-loop
// ---------------------------------------------------------------------------

fn rule_unbounded_loop(a: &Analysis, findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    if !LOOP_SCOPED_PATHS.iter().any(|p| a.path.contains(p)) {
        return;
    }
    for f in &a.ast.fns {
        if fn_in_test(a, f) {
            continue;
        }
        let mut exprs: Vec<&Expr> = Vec::new();
        collect_exprs_in_block(&f.body, &mut exprs);
        for e in exprs {
            let body_span = match &e.kind {
                ExprKind::Loop { .. } => e.span,
                ExprKind::While { cond, .. } if cond_is_literal_true(a, cond) => e.span,
                _ => continue,
            };
            let toks = &a.tokens[body_span.0..(body_span.1 + 1).min(a.tokens.len())];
            let has_exit = toks.iter().any(|t| {
                (t.kind == TokenKind::Ident && matches!(t.text.as_str(), "break" | "return"))
                    || (t.kind == TokenKind::Punct && t.text == "?")
            });
            let consults_control = toks
                .iter()
                .any(|t| t.kind == TokenKind::Ident && seg_matches(&t.text, CONTROL_SEGS));
            if !has_exit && !consults_control {
                findings.push(Finding {
                    file: a.path.clone(),
                    line: e.line,
                    rule: "unbounded-loop",
                    message: format!(
                        "infinite loop in `{}` has no exit and never consults a \
                         cancel/deadline/shutdown control",
                        f.name
                    ),
                    item: Some(f.name.clone()),
                });
            }
        }
    }
}

fn cond_is_literal_true(a: &Analysis, cond: &Expr) -> bool {
    matches!(cond.kind, ExprKind::Lit)
        && a.tokens
            .get(cond.span.0)
            .map_or(false, |t| t.text == "true")
}

// ---------------------------------------------------------------------------
// untimed-io
// ---------------------------------------------------------------------------

fn rule_untimed_io(a: &Analysis, findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    if !IO_SCOPED_PATHS.iter().any(|p| a.path.contains(p)) {
        return;
    }
    let file_sets_timeout = a
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "set_read_timeout");
    for f in &a.ast.fns {
        if fn_in_test(a, f) {
            continue;
        }
        let mut exprs: Vec<&Expr> = Vec::new();
        collect_exprs_in_block(&f.body, &mut exprs);
        let mut socket_read: Option<&Expr> = None;
        for e in &exprs {
            if let ExprKind::MethodCall { recv, method, .. } = &e.kind {
                if READ_METHODS.contains(&method.as_str()) && receiver_is_socket(recv) {
                    socket_read = Some(e);
                    break;
                }
            }
        }
        let Some(read_expr) = socket_read else {
            continue;
        };
        let body = &a.tokens[f.body.span.0..(f.body.span.1 + 1).min(a.tokens.len())];
        let handles_interrupted = body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "Interrupted");
        if !handles_interrupted {
            findings.push(Finding {
                file: a.path.clone(),
                line: read_expr.line,
                rule: "untimed-io",
                message: format!(
                    "socket read in `{}` does not retry on `ErrorKind::Interrupted`; a \
                     timer signal will drop the connection",
                    f.name
                ),
                item: Some(f.name.clone()),
            });
        }
        if !file_sets_timeout {
            findings.push(Finding {
                file: a.path.clone(),
                line: read_expr.line,
                rule: "untimed-io",
                message: format!(
                    "socket read in `{}` but this file never calls `set_read_timeout`; a \
                     stalled peer blocks the service forever",
                    f.name
                ),
                item: Some(f.name.clone()),
            });
        }
    }
}

pub(crate) fn receiver_is_socket(recv: &Expr) -> bool {
    match &recv.kind {
        ExprKind::Path(segs) => segs.last().map_or(false, |s| seg_matches(s, SOCKET_SEGS)),
        ExprKind::Field { name, .. } => seg_matches(name, SOCKET_SEGS),
        ExprKind::Unary { expr } | ExprKind::Try { expr } => receiver_is_socket(expr),
        ExprKind::MethodCall { recv, method, .. } => {
            // `stream.by_ref()`, `conn.get_mut()`, `stream.lock()` ...
            let _ = method;
            receiver_is_socket(recv)
        }
        ExprKind::Call { args, .. } => args.first().map_or(false, receiver_is_socket),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Shared expression walking
// ---------------------------------------------------------------------------

/// Collects every expression in a block, recursing through nested blocks.
pub(crate) fn collect_exprs_in_block<'a>(b: &'a Block, out: &mut Vec<&'a Expr>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    collect_exprs(e, out);
                }
                if let Some(eb) = else_block {
                    collect_exprs_in_block(eb, out);
                }
            }
            Stmt::Expr(e) => collect_exprs(e, out),
        }
    }
}

pub(crate) fn collect_exprs<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    out.push(e);
    match &e.kind {
        ExprKind::Macro { args, .. } | ExprKind::Tuple { items: args } => {
            for a in args {
                collect_exprs(a, out);
            }
        }
        ExprKind::Call { callee, args } => {
            collect_exprs(callee, out);
            for a in args {
                collect_exprs(a, out);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            collect_exprs(recv, out);
            for a in args {
                collect_exprs(a, out);
            }
        }
        ExprKind::Field { recv, .. } => collect_exprs(recv, out),
        ExprKind::Index { recv, index } => {
            collect_exprs(recv, out);
            collect_exprs(index, out);
        }
        ExprKind::Cast { expr, .. }
        | ExprKind::Unary { expr }
        | ExprKind::Try { expr }
        | ExprKind::Closure { body: expr } => collect_exprs(expr, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_exprs(lhs, out);
            collect_exprs(rhs, out);
        }
        ExprKind::Assign { target, value } => {
            collect_exprs(target, out);
            collect_exprs(value, out);
        }
        ExprKind::Range { lo, hi } => {
            if let Some(l) = lo {
                collect_exprs(l, out);
            }
            if let Some(h) = hi {
                collect_exprs(h, out);
            }
        }
        ExprKind::If { cond, then, els } => {
            collect_exprs(cond, out);
            collect_exprs_in_block(then, out);
            if let Some(e2) = els {
                collect_exprs(e2, out);
            }
        }
        ExprKind::LetCond { scrut, .. } => collect_exprs(scrut, out),
        ExprKind::Match { scrut, arms } => {
            collect_exprs(scrut, out);
            for arm in arms {
                collect_exprs(&arm.body, out);
            }
        }
        ExprKind::Loop { body } => collect_exprs_in_block(body, out),
        ExprKind::While { cond, body } => {
            collect_exprs(cond, out);
            collect_exprs_in_block(body, out);
        }
        ExprKind::For { iter, body, .. } => {
            collect_exprs(iter, out);
            collect_exprs_in_block(body, out);
        }
        ExprKind::BlockExpr(b) => collect_exprs_in_block(b, out),
        ExprKind::StructLit { fields, .. } => {
            for (_, v) in fields {
                collect_exprs(v, out);
            }
        }
        ExprKind::Return { value } => {
            if let Some(v) = value {
                collect_exprs(v, out);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Lit
        | ExprKind::Break
        | ExprKind::Continue
        | ExprKind::Unknown => {}
    }
}

/// First identifier token inside an expression's span (for messages).
fn first_ident_in(a: &Analysis, span: Span) -> String {
    a.span_tokens(span)
        .iter()
        .find(|t| {
            t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "as" | "self" | "mut" | "ref")
        })
        .map_or_else(|| "<expr>".to_string(), |t| t.text.clone())
}
