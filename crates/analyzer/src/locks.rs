//! `lock-order`: a workspace-wide Mutex acquisition-order analysis.
//!
//! The dumpd service holds several Mutexes (`queue`, `jobs`, `state`,
//! `result`) and the metrics registry adds more. Two functions that
//! acquire the same pair in opposite orders deadlock under load — the
//! classic bug RacerD-style lock-order analyses catch. This module
//! tracks, per function, which lock guards are live at each acquisition
//! site (including the `lock(&x)` poison-tolerant helper idiom and
//! `.lock().unwrap()` chains), emits `held -> acquired` edges, reports
//! same-lock reacquisition (a guaranteed self-deadlock on std's
//! non-reentrant `Mutex`) immediately, and lets the engine's workspace
//! pass run cycle detection over the union of every file's edges.
//!
//! Lock identity is the field/variable name being locked (`self.state`
//! and a local `state` unify). That approximation is documented: the
//! workspace convention of one name per lock makes it precise here, and
//! a false merge only ever *adds* an ordering constraint.

use crate::ast::{Block, Expr, ExprKind, Stmt};
use crate::diag::Finding;
use crate::engine::{Analysis, FileKind};

/// One observed `held -> acquired` ordering fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub line: u32,
    pub fn_name: String,
}

/// Methods that are transparent wrappers around a lock acquisition in an
/// initializer: the guard still ends up bound.
const GUARD_WRAPPERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Scans one file: pushes reacquisition findings and collects ordering
/// edges for the cross-file pass.
pub(crate) fn scan_file(a: &Analysis, edges: &mut Vec<LockEdge>, findings: &mut Vec<Finding>) {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for f in &a.ast.fns {
        if a.in_test.get(f.tok).copied().unwrap_or(false) {
            continue;
        }
        let mut scan = Scan {
            a,
            fn_name: &f.name,
            frames: Vec::new(),
            edges,
            findings,
        };
        scan.block(&f.body);
    }
}

struct Scan<'a, 'o> {
    a: &'a Analysis,
    fn_name: &'a str,
    /// One frame per live block: `(lock, bound_variable)`.
    frames: Vec<Vec<(String, Option<String>)>>,
    edges: &'o mut Vec<LockEdge>,
    findings: &'o mut Vec<Finding>,
}

impl<'a, 'o> Scan<'a, 'o> {
    fn block(&mut self, b: &'a Block) {
        self.frames.push(Vec::new());
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    name,
                    init: Some(init),
                    else_block,
                    ..
                } => {
                    let core = core_acquisition(init);
                    self.expr(init, core.1);
                    if let Some(lock) = core.0 {
                        self.record(&lock, init.line);
                        if let Some(frame) = self.frames.last_mut() {
                            frame.push((lock, name.clone()));
                        }
                    }
                    if let Some(eb) = else_block {
                        self.block(eb);
                    }
                }
                Stmt::Let { else_block, .. } => {
                    if let Some(eb) = else_block {
                        self.block(eb);
                    }
                }
                Stmt::Expr(e) => {
                    if let Some(var) = drop_target(e) {
                        for frame in self.frames.iter_mut() {
                            frame.retain(|(_, v)| v.as_deref() != Some(var));
                        }
                        continue;
                    }
                    self.expr(e, None);
                }
            }
        }
        self.frames.pop();
    }

    /// Walks an expression recording every (temporary) acquisition,
    /// skipping the one node `skip` that the caller binds as a guard.
    fn expr(&mut self, e: &'a Expr, skip: Option<&'a Expr>) {
        if let Some(s) = skip {
            if std::ptr::eq(e, s) {
                // The bound acquisition itself: the caller records it.
                // Still walk its children for nested acquisitions.
                self.children(e, skip);
                return;
            }
        }
        if let Some(lock) = acquisition(e) {
            self.record(&lock, e.line);
        }
        self.children(e, skip);
    }

    fn children(&mut self, e: &'a Expr, skip: Option<&'a Expr>) {
        match &e.kind {
            ExprKind::Macro { args, .. } | ExprKind::Tuple { items: args } => {
                for a in args {
                    self.expr(a, skip);
                }
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee, skip);
                for a in args {
                    self.expr(a, skip);
                }
            }
            ExprKind::MethodCall { recv, args, .. } => {
                self.expr(recv, skip);
                for a in args {
                    self.expr(a, skip);
                }
            }
            ExprKind::Field { recv, .. } => self.expr(recv, skip),
            ExprKind::Index { recv, index } => {
                self.expr(recv, skip);
                self.expr(index, skip);
            }
            ExprKind::Cast { expr, .. }
            | ExprKind::Unary { expr }
            | ExprKind::Try { expr }
            | ExprKind::Closure { body: expr } => self.expr(expr, skip),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs, skip);
                self.expr(rhs, skip);
            }
            ExprKind::Assign { target, value } => {
                self.expr(target, skip);
                self.expr(value, skip);
            }
            ExprKind::Range { lo, hi } => {
                if let Some(l) = lo {
                    self.expr(l, skip);
                }
                if let Some(h) = hi {
                    self.expr(h, skip);
                }
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond, skip);
                self.block(then);
                if let Some(e2) = els {
                    self.expr(e2, skip);
                }
            }
            ExprKind::LetCond { scrut, .. } => self.expr(scrut, skip),
            ExprKind::Match { scrut, arms } => {
                self.expr(scrut, skip);
                for arm in arms {
                    self.expr(&arm.body, skip);
                }
            }
            ExprKind::Loop { body } => self.block(body),
            ExprKind::While { cond, body } => {
                self.expr(cond, skip);
                self.block(body);
            }
            ExprKind::For { iter, body, .. } => {
                self.expr(iter, skip);
                self.block(body);
            }
            ExprKind::BlockExpr(b) => self.block(b),
            ExprKind::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.expr(v, skip);
                }
            }
            ExprKind::Return { value } => {
                if let Some(v) = value {
                    self.expr(v, skip);
                }
            }
            ExprKind::Path(_)
            | ExprKind::Lit
            | ExprKind::Break
            | ExprKind::Continue
            | ExprKind::Unknown => {}
        }
    }

    /// Records edges from every held lock to `lock` and reports
    /// reacquisition of a lock already held.
    fn record(&mut self, lock: &str, line: u32) {
        let mut reacquired = false;
        for (held, _) in self.frames.iter().flatten() {
            if held == lock {
                reacquired = true;
            } else {
                self.edges.push(LockEdge {
                    held: held.clone(),
                    acquired: lock.to_string(),
                    line,
                    fn_name: self.fn_name.to_string(),
                });
            }
        }
        if reacquired {
            self.findings.push(Finding {
                file: self.a.path.clone(),
                line,
                rule: "lock-order",
                message: format!(
                    "`{}` acquires `{lock}` while already holding it; std `Mutex` is not \
                     reentrant, this self-deadlocks",
                    self.fn_name
                ),
                item: Some(lock.to_string()),
            });
        }
    }
}

/// The lock name an expression acquires, if the expression *is* an
/// acquisition: `x.lock()` / `lock(&x)`.
fn acquisition(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { recv, method, args } if method == "lock" && args.is_empty() => {
            lock_name(recv)
        }
        ExprKind::Call { callee, args } if args.len() == 1 => {
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.last().map(String::as_str) == Some("lock") {
                    return lock_name(&args[0]);
                }
            }
            None
        }
        _ => None,
    }
}

/// Strips transparent guard wrappers (`?`, `.unwrap()`, ...) off an
/// initializer; returns the acquired lock and the acquisition node when
/// the core of the initializer is an acquisition (so the binding holds
/// the guard). `lock(&x).clone()` is *not* a held guard.
fn core_acquisition(e: &Expr) -> (Option<String>, Option<&Expr>) {
    let mut cur = e;
    loop {
        if let Some(lock) = acquisition(cur) {
            return (Some(lock), Some(cur));
        }
        match &cur.kind {
            ExprKind::Try { expr } => cur = expr,
            ExprKind::MethodCall { recv, method, .. }
                if GUARD_WRAPPERS.contains(&method.as_str()) =>
            {
                cur = recv;
            }
            _ => return (None, None),
        }
    }
}

/// The name of the thing being locked: the last field/path segment that
/// is not `self`.
fn lock_name(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Field { name, .. } => Some(name.clone()),
        ExprKind::Path(segs) => {
            let last = segs.last()?;
            if last == "self" {
                None
            } else {
                Some(last.clone())
            }
        }
        ExprKind::Unary { expr } | ExprKind::Try { expr } => lock_name(expr),
        ExprKind::MethodCall { recv, .. } | ExprKind::Index { recv, .. } => lock_name(recv),
        _ => None,
    }
}

/// `drop(var)` statements release the named guard.
fn drop_target(e: &Expr) -> Option<&str> {
    if let ExprKind::Call { callee, args } = &e.kind {
        if let ExprKind::Path(segs) = &callee.kind {
            if segs.last().map(String::as_str) == Some("drop") && args.len() == 1 {
                if let ExprKind::Path(arg) = &args[0].kind {
                    if let [only] = arg.as_slice() {
                        return Some(only);
                    }
                }
            }
        }
    }
    None
}

/// Workspace pass: cycle detection over the union of every file's edges.
/// An edge that participates in a cycle is reported once, at its first
/// observation site (sorted by file then line) per distinct
/// `(held, acquired)` pair.
pub(crate) fn cycle_findings(edges: &[(String, LockEdge)]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, e) in edges {
        adj.entry(e.held.as_str())
            .or_default()
            .insert(e.acquired.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut sorted: Vec<&(String, LockEdge)> = edges.iter().collect();
    sorted.sort_by(|x, y| {
        (
            x.0.as_str(),
            x.1.line,
            x.1.held.as_str(),
            x.1.acquired.as_str(),
        )
            .cmp(&(
                y.0.as_str(),
                y.1.line,
                y.1.held.as_str(),
                y.1.acquired.as_str(),
            ))
    });
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    let mut findings = Vec::new();
    for (file, e) in sorted {
        if !reaches(&e.acquired, &e.held) {
            continue; // not part of a cycle
        }
        if !reported.insert((e.held.clone(), e.acquired.clone())) {
            continue;
        }
        findings.push(Finding {
            file: file.clone(),
            line: e.line,
            rule: "lock-order",
            message: format!(
                "`{}` acquires `{}` while holding `{}`, but the workspace also acquires \
                 them in the opposite order; pick one order to avoid deadlock",
                e.fn_name, e.acquired, e.held
            ),
            item: Some(format!("{}->{}", e.held, e.acquired)),
        });
    }
    findings
}
