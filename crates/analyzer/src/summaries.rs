//! Per-function summaries and the interprocedural fixpoint.
//!
//! Phase one of the v3 engine: every file is reduced to a list of
//! [`FnFact`]s — a serializable flow IR recording, per function, which
//! *symbolic sources* (intrinsic secrets, parameters, results of earlier
//! call sites) reach its return value, its print sinks, and its narrowing
//! casts, plus local panic/blocking-IO sites and the calls it makes. The
//! facts depend only on the file's own text, so they cache under a plain
//! content hash.
//!
//! [`fixpoint`] then iterates [`FnSummary`]s over the
//! [`crate::callgraph`]'s SCCs in reverse topological order. The summary
//! domain is a finite monotone lattice (two bools and four 16-bit
//! parameter masks per flavor), so each SCC stabilizes; an explicit
//! iteration bound (`8 * |scc| + 8`) backstops the argument. Call-result
//! references inside a fact always point at earlier call sites of the
//! same function, or of the spawner a spawn closure captured them from
//! (arguments are extracted before the enclosing call is registered), so
//! resolving a fact is a single left-to-right pass.
//!
//! [`Extractor`] is the analyzer's one value-tracking evaluator. The same
//! walk records each function's check sites ([`Sites`]): the casts, print
//! macros and call arguments that `lossy-len-cast` and `secret-taint`
//! judge. Phase two re-extracts a file it re-checks and resolves those
//! sites against the fixpoint ([`CheckedFn`]); sites hold token spans,
//! so they never enter the cache.
//!
//! The same summaries drive two workspace rules directly:
//! `panic-reachability` (a dumpd worker/connection entry calls something
//! that can transitively panic) and `blocking-in-worker` (a queue worker
//! reaches blocking socket IO).

use std::collections::HashMap;

use crate::ast::{Block, Expr, ExprKind, Span, Stmt};
use crate::cache::fnv64;
use crate::callgraph::{CallGraph, CallKey};
use crate::dataflow::{
    receiver_is_socket, seg_matches, IO_SCOPED_PATHS, LEN_CAST_EXEMPT, LEN_SEGS, READ_METHODS,
};
use crate::diag::Finding;
use crate::engine::{classify, format_captures, Analysis, FileKind, PRINT_MACROS};
use crate::lexer::TokenKind;
use crate::secrets;

/// Function-name segments that mark a service entry point for
/// `panic-reachability`.
const PANIC_ENTRY_SEGS: &[&str] = &[
    "worker",
    "connection",
    "conn",
    "handle",
    "serve",
    "dispatch",
    "accept",
];

/// Function-name segments that mark a queue worker for
/// `blocking-in-worker`. Narrower than the panic set: connection handlers
/// legitimately block on their own socket (that is `untimed-io`'s beat).
const WORKER_ENTRY_SEGS: &[&str] = &["worker", "job"];

/// A symbolic source set in one flow domain: an intrinsic base source
/// (a secret-named field read, a `.len()` result), parameter bits, and
/// references to the results of earlier call sites in the same function.
/// `checked` is only meaningful in the length domain: the value passed
/// through a mask/clamp/try_from and can no longer truncate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Set {
    pub(crate) base: bool,
    pub(crate) checked: bool,
    pub(crate) params: u16,
    pub(crate) calls: Vec<u16>,
}

impl Set {
    fn base() -> Set {
        Set {
            base: true,
            ..Set::default()
        }
    }

    fn param(i: usize) -> Set {
        Set {
            params: if i < 16 { 1 << i } else { 0 },
            ..Set::default()
        }
    }

    fn call(j: usize) -> Set {
        Set {
            calls: vec![j.min(u16::MAX as usize) as u16],
            ..Set::default()
        }
    }

    fn join(mut self, other: &Set) -> Set {
        self.base |= other.base;
        self.checked |= other.checked;
        self.params |= other.params;
        for &c in &other.calls {
            if !self.calls.contains(&c) {
                self.calls.push(c);
            }
        }
        self
    }

    fn with_checked(mut self) -> Set {
        self.checked = true;
        self
    }

    /// Carries any taint at all (checked alone is not taint).
    pub(crate) fn is_taint(&self) -> bool {
        self.base || self.params != 0 || !self.calls.is_empty()
    }

    fn serialize(&self) -> String {
        let refs: Vec<String> = self.calls.iter().map(u16::to_string).collect();
        format!(
            "{}{}:{:04x}:{}",
            u8::from(self.base),
            u8::from(self.checked),
            self.params,
            refs.join(";")
        )
    }

    fn deserialize(s: &str) -> Option<Set> {
        let mut parts = s.split(':');
        let flags = parts.next()?;
        if flags.len() != 2 {
            return None;
        }
        let params = u16::from_str_radix(parts.next()?, 16).ok()?;
        let refs = parts.next()?;
        let calls = if refs.is_empty() {
            Vec::new()
        } else {
            refs.split(';')
                .map(str::parse)
                .collect::<Result<Vec<u16>, _>>()
                .ok()?
        };
        Some(Set {
            base: flags.as_bytes()[0] == b'1',
            checked: flags.as_bytes()[1] == b'1',
            params,
            calls,
        })
    }
}

/// A value's taint in both domains, plus two facts only the per-file
/// checks read.
#[derive(Debug, Clone, Default)]
struct Val {
    t: Set,
    l: Set,
    /// Known-wide integer (a `u64`/`u128`/`i64`/`i128` declared type or
    /// cast), so `as usize` can truncate on 32-bit targets.
    wide: bool,
    /// Token of the first secret-named field read that reached this
    /// value; names the source in findings.
    src: Option<usize>,
}

impl Val {
    fn join(self, other: &Val) -> Val {
        Val {
            t: self.t.join(&other.t),
            l: self.l.join(&other.l),
            wide: self.wide || other.wide,
            src: self.src.or(other.src),
        }
    }

    /// Worth an environment entry. A wide binding is kept even when
    /// untainted: it shadows the length-by-name fallback for unbound
    /// identifiers.
    fn is_tracked(&self) -> bool {
        self.t.is_taint() || self.l.is_taint() || self.wide
    }
}

fn ty_is_wide(ty: &str) -> bool {
    ty.contains("u64") || ty.contains("u128") || ty.contains("i64") || ty.contains("i128")
}

/// One call site inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallFact {
    pub(crate) callee: CallKey,
    pub(crate) line: u32,
    /// Secret-domain taint of each argument (self omitted for methods,
    /// matching [`crate::ast::FnDef::params`]).
    pub(crate) args_t: Vec<Set>,
    /// Length-domain taint of each argument.
    pub(crate) args_l: Vec<Set>,
    /// Plain-identifier argument names (`""` for anything else), so
    /// channel endpoints can be tracked one call level deep.
    pub(crate) args_id: Vec<String>,
}

impl Default for CallFact {
    fn default() -> Self {
        CallFact {
            callee: CallKey::Path(Vec::new()),
            line: 0,
            args_t: Vec::new(),
            args_l: Vec::new(),
            args_id: Vec::new(),
        }
    }
}

/// A struct-literal field initialized from a tainted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StructInit {
    pub(crate) struct_name: String,
    pub(crate) field: String,
    pub(crate) set: Set,
}

/// One thread-spawn site. The closure body is extracted as a synthetic
/// function fact named `{fn}::spawn@{line}`, which the thread-role graph
/// treats as a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpawnFact {
    pub(crate) line: u32,
    /// Name of the synthetic closure fact in the same file.
    pub(crate) closure: String,
    /// `scope.spawn(..)` — auto-joined at scope exit, exempt from
    /// `join-leak` (but still a thread-role root).
    pub(crate) scoped: bool,
    /// The JoinHandle is dropped implicitly: neither bound and used, nor
    /// escaping, nor explicitly discarded with `let _ =`.
    pub(crate) leaked: bool,
}

/// How a channel was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChanKind {
    /// `sync_channel(0)`: send blocks until a receiver arrives.
    Rendezvous,
    /// `sync_channel(n > 0)`.
    Bounded,
    /// `channel()`: send never blocks, the queue is unbounded.
    Unbounded,
}

/// One channel creation site (`let (tx, rx) = channel()` and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChannelFact {
    pub(crate) line: u32,
    pub(crate) kind: ChanKind,
    /// Binding name of the sender endpoint.
    pub(crate) tx: String,
    /// Binding name of the receiver endpoint.
    pub(crate) rx: String,
}

/// A send/recv-family operation on a named endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChanOpKind {
    Send,
    TrySend,
    /// Blocking `recv()` (and `for msg in rx` iteration).
    Recv,
    TryRecv,
    /// `recv_timeout` / `recv_deadline`: blocking but bounded.
    RecvTimeout,
}

/// One channel operation inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChanOp {
    pub(crate) line: u32,
    pub(crate) op: ChanOpKind,
    /// The send/recv result is immediately `.unwrap()`/`.expect()`ed, so
    /// endpoint disconnect becomes a panic.
    pub(crate) unwrapped: bool,
    /// The endpoint binding (or field/parameter) name operated on.
    pub(crate) endpoint: String,
}

/// Memory ordering named at an atomic call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtomicOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

/// Shape of an atomic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtomicOpKind {
    Store,
    Load,
    /// fetch_*/swap/compare_exchange: read-modify-write, inherently a
    /// single-location monotonic update.
    Rmw,
}

/// One atomic operation inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AtomicFact {
    pub(crate) line: u32,
    pub(crate) op: AtomicOpKind,
    pub(crate) ord: AtomicOrd,
    /// The stored value is a literal `true`/`false` — the cooperative-flag
    /// shape the `atomic-ordering` allowlist keys on.
    pub(crate) is_flag: bool,
    /// Receiver tail: `shared.stop.store(..)` records `stop`.
    pub(crate) name: String,
}

/// Everything the fixpoint needs to know about one function, extracted
/// from its own file alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FnFact {
    /// `name` or `Type::method`, as in [`crate::ast::FnDef`].
    pub(crate) name: String,
    pub(crate) line: u32,
    /// Line of the first unsuppressed panic construct, if any.
    pub(crate) local_panic: Option<u32>,
    /// Line of the first blocking socket operation, if any.
    pub(crate) local_block: Option<u32>,
    /// Line of the first `thread::sleep` call, if any.
    pub(crate) local_sleep: Option<u32>,
    /// Param bits a send-family operation is performed on.
    pub(crate) param_send: u16,
    /// Param bits a *blocking* recv is performed on.
    pub(crate) param_recv: u16,
    /// Spawn-closure facts only: how many of the spawner's calls precede
    /// the spawn. Call references below it name the spawner's calls
    /// (captured values); the closure's own call `k` is reference
    /// `call_base + k`.
    pub(crate) call_base: u16,
    pub(crate) calls: Vec<CallFact>,
    pub(crate) spawns: Vec<SpawnFact>,
    pub(crate) channels: Vec<ChannelFact>,
    pub(crate) chan_ops: Vec<ChanOp>,
    pub(crate) atomics: Vec<AtomicFact>,
    /// Taint reaching the return value.
    pub(crate) ret_t: Set,
    pub(crate) ret_l: Set,
    /// Taint reaching a print/format sink.
    pub(crate) sink_t: Set,
    /// Length taint reaching an unchecked narrowing cast.
    pub(crate) narrow_l: Set,
    pub(crate) struct_inits: Vec<StructInit>,
}

/// The fixpoint's verdict about one function, as seen by its callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// The return value carries intrinsic key material.
    pub returns_secret: bool,
    /// Param bits whose secret taint flows to the return value.
    pub param_to_ret: u16,
    /// Param bits that (transitively) reach a print/format sink.
    pub param_to_sink: u16,
    /// The return value is a length/size.
    pub returns_len: bool,
    /// Param bits whose length taint flows to the return value.
    pub param_to_ret_len: u16,
    /// Param bits that (transitively) reach an unchecked narrowing cast.
    pub param_narrowed: u16,
    /// A panic is reachable from this function.
    pub may_panic: bool,
    /// Blocking socket IO is reachable from this function.
    pub may_block: bool,
}

impl FnSummary {
    fn join(mut self, o: &FnSummary) -> FnSummary {
        self.returns_secret |= o.returns_secret;
        self.param_to_ret |= o.param_to_ret;
        self.param_to_sink |= o.param_to_sink;
        self.returns_len |= o.returns_len;
        self.param_to_ret_len |= o.param_to_ret_len;
        self.param_narrowed |= o.param_narrowed;
        self.may_panic |= o.may_panic;
        self.may_block |= o.may_block;
        self
    }

    /// Stable hash for dependency-aware cache keys.
    pub(crate) fn hash(&self) -> u64 {
        let bytes = [
            u8::from(self.returns_secret),
            u8::from(self.returns_len),
            u8::from(self.may_panic),
            u8::from(self.may_block),
            (self.param_to_ret & 0xff) as u8,
            (self.param_to_ret >> 8) as u8,
            (self.param_to_sink & 0xff) as u8,
            (self.param_to_sink >> 8) as u8,
            (self.param_to_ret_len & 0xff) as u8,
            (self.param_to_ret_len >> 8) as u8,
            (self.param_narrowed & 0xff) as u8,
            (self.param_narrowed >> 8) as u8,
        ];
        fnv64(&bytes)
    }
}

/// Bookkeeping about the summary phase, surfaced through `--stats` and
/// the lint bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Functions in the workspace call graph.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Strongly connected components.
    pub sccs: usize,
    /// Largest SCC (1 unless something is recursive).
    pub max_scc: usize,
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Where one function's values meet the per-file value rules
/// (`lossy-len-cast`, `secret-taint`), recorded by the same walk that
/// builds its [`FnFact`]. Sites hold symbolic sets and token spans; the
/// check phase resolves them against the fixpoint ([`CheckedFn`]) and
/// never caches them.
#[derive(Debug, Default)]
pub(crate) struct Sites {
    /// Unchecked `as` casts of length-carrying values that can truncate.
    pub(crate) casts: Vec<CastSite>,
    /// Print/format macros outside `secret-print`'s lexical reach.
    pub(crate) prints: Vec<PrintSite>,
    /// Parallel to [`FnFact::calls`]: each argument's token span and
    /// [`Val::src`].
    pub(crate) call_args: Vec<Vec<(Span, Option<usize>)>>,
    /// Parameters whose names mark them as lengths (a spawn closure
    /// inherits its spawner's).
    pub(crate) len_params: u16,
}

/// A narrowing cast, or a wide value cast to `usize`/`isize`.
#[derive(Debug)]
pub(crate) struct CastSite {
    pub(crate) line: u32,
    pub(crate) operand: Span,
    pub(crate) ty: String,
    pub(crate) len: Set,
}

/// One print/format macro and the values that reach it: each argument,
/// then each `{name}` capture, in source order.
#[derive(Debug)]
pub(crate) struct PrintSite {
    pub(crate) line: u32,
    pub(crate) mac: String,
    pub(crate) reach: Vec<Reach>,
}

/// A value reaching a print sink. `var` names the tainted binding it
/// reads, when there is one.
#[derive(Debug)]
pub(crate) struct Reach {
    pub(crate) var: Option<String>,
    pub(crate) t: Set,
    pub(crate) src: Option<usize>,
}

/// Extracts per-function facts, each with its check sites, from one
/// analyzed file. Test functions and test/bench files produce nothing:
/// they are never legitimate callees of shipped code paths.
pub(crate) fn extract_with_sites(a: &Analysis) -> Vec<(FnFact, Sites)> {
    if !matches!(a.kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &a.ast.fns {
        if a.in_test.get(f.tok).copied().unwrap_or(false) {
            continue;
        }
        let self_ty = f.name.rsplit_once("::").map(|(t, _)| t.to_string());
        let mut ex = Extractor {
            a,
            self_ty,
            env: HashMap::new(),
            params: f.params.iter().map(|(n, _)| n.clone()).collect(),
            fact: FnFact {
                name: f.name.clone(),
                line: f.line,
                ..FnFact::default()
            },
            sites: Sites::default(),
            pending: Vec::new(),
            spawned: Vec::new(),
            len_scoped: !LEN_CAST_EXEMPT.contains(&a.path.as_str()),
        };
        for (i, (name, ty)) in f.params.iter().enumerate() {
            ex.env.insert(
                name.clone(),
                Val {
                    t: Set::param(i),
                    l: Set::param(i),
                    wide: ty_is_wide(ty),
                    src: None,
                },
            );
            if i < 16 && seg_matches(name, LEN_SEGS) {
                ex.sites.len_params |= 1 << i;
            }
        }
        let tail = ex.scan_block(&f.body);
        ex.fact.ret_t = std::mem::take(&mut ex.fact.ret_t).join(&tail.t);
        ex.fact.ret_l = std::mem::take(&mut ex.fact.ret_l).join(&tail.l);
        ex.fact.local_panic = local_panic_line(a, f.tok, f.body.span.1);
        resolve_spawn_bindings(a, f.tok, f.body.span.1, &mut ex.fact, &ex.pending);
        let spawned = std::mem::take(&mut ex.spawned);
        out.push((ex.fact, ex.sites));
        out.extend(spawned);
    }
    out
}

/// The facts alone.
#[cfg(test)]
pub(crate) fn extract(a: &Analysis) -> Vec<FnFact> {
    extract_with_sites(a)
        .into_iter()
        .map(|(fact, _)| fact)
        .collect()
}

/// Decides `leaked` for `let h = thread::spawn(..)` bindings: a handle
/// name never mentioned again inside the function is dropped implicitly.
/// Any further use (`h.join()`, `handles.push(h)`, a return) keeps it
/// clean — false-negative-friendly, like the rest of the linter.
fn resolve_spawn_bindings(
    a: &Analysis,
    start: usize,
    end: usize,
    fact: &mut FnFact,
    pending: &[(usize, String)],
) {
    for (idx, name) in pending {
        let uses = a.tokens[start..=end.min(a.tokens.len().saturating_sub(1))]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text == *name)
            .count();
        // One occurrence is the binding itself.
        if uses <= 1 {
            if let Some(s) = fact.spawns.get_mut(*idx) {
                s.leaked = true;
            }
        }
    }
}

/// First unsuppressed panic construct in `[start, end]` (the same
/// patterns as the `panic` rule; a `lint:allow(panic): reason` that
/// covers the line excludes it — justified panics are not reachability
/// hazards).
fn local_panic_line(a: &Analysis, start: usize, end: usize) -> Option<u32> {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let toks = &a.tokens;
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let text = toks[i].text.as_str();
        let is_method_panic = (text == "unwrap" || text == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map_or(false, |t| t.text == "(");
        let is_macro_panic =
            PANIC_MACROS.contains(&text) && toks.get(i + 1).map_or(false, |t| t.text == "!");
        if !is_method_panic && !is_macro_panic {
            continue;
        }
        let line = toks[i].line;
        let suppressed = a
            .suppressions
            .iter()
            .any(|s| s.has_reason && s.covers("panic", line));
        if !suppressed {
            return Some(line);
        }
    }
    None
}

/// A `thread::spawn`/`.spawn(|..| ..)` call, possibly wrapped in the
/// Builder's `unwrap()`/`expect()` — used to decide the statement-position
/// and `let`-binding contexts for `join-leak`.
fn is_spawn_expr(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            matches!(
                &callee.kind,
                ExprKind::Path(segs)
                    if segs.len() >= 2
                        && segs.last().map(String::as_str) == Some("spawn")
                        && segs.contains(&"thread".to_string())
            ) && matches!(args.as_slice(), [a] if matches!(a.kind, ExprKind::Closure { .. }))
        }
        ExprKind::MethodCall { recv, method, args } => match method.as_str() {
            "spawn" => {
                matches!(args.as_slice(), [a] if matches!(a.kind, ExprKind::Closure { .. }))
            }
            "unwrap" | "expect" => is_spawn_expr(recv),
            _ => false,
        },
        _ => false,
    }
}

/// The name of a bare-identifier expression (through `&`/`&mut`).
fn plain_ident(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [only] => Some(only.clone()),
            _ => None,
        },
        ExprKind::Unary { expr } => plain_ident(expr),
        _ => None,
    }
}

/// The receiver's trailing name: `shared.stop.store(..)` -> `stop`,
/// `flag.load(..)` -> `flag`.
fn receiver_tail(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().cloned(),
        ExprKind::Field { name, .. } => Some(name.clone()),
        ExprKind::Unary { expr } | ExprKind::Try { expr } => receiver_tail(expr),
        _ => None,
    }
}

/// Parses an `Ordering::X` argument.
fn ordering_of(e: &Expr) -> Option<AtomicOrd> {
    let ExprKind::Path(segs) = &e.kind else {
        return None;
    };
    match segs.last().map(String::as_str) {
        Some("Relaxed") => Some(AtomicOrd::Relaxed),
        Some("Acquire") => Some(AtomicOrd::Acquire),
        Some("Release") => Some(AtomicOrd::Release),
        Some("AcqRel") => Some(AtomicOrd::AcqRel),
        Some("SeqCst") => Some(AtomicOrd::SeqCst),
        _ => None,
    }
}

struct Extractor<'a> {
    a: &'a Analysis,
    self_ty: Option<String>,
    env: HashMap<String, Val>,
    /// Parameter names of the function being extracted (empty for spawn
    /// closures — captures are not parameters).
    params: Vec<String>,
    fact: FnFact,
    sites: Sites,
    /// `(spawn index, binding name)` for `let h = thread::spawn(..)`,
    /// resolved against the function's token span after the walk.
    pending: Vec<(usize, String)>,
    /// Synthetic facts for spawn-closure bodies, in extraction order.
    spawned: Vec<(FnFact, Sites)>,
    len_scoped: bool,
}

impl<'a> Extractor<'a> {
    /// Walks a block in source order; the block's value is its trailing
    /// expression's value.
    fn scan_block(&mut self, b: &Block) -> Val {
        let mut last = Val::default();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    name,
                    names,
                    ty,
                    init,
                    else_block,
                    ..
                } => {
                    last = Val::default();
                    let wide = ty.as_deref().is_some_and(ty_is_wide);
                    if let Some(e) = init {
                        let spawn_before = self.fact.spawns.len();
                        let mut v = self.eval(e);
                        v.wide |= wide;
                        self.note_channel_binding(names, e);
                        if is_spawn_expr(e) && self.fact.spawns.len() > spawn_before {
                            let idx = self.fact.spawns.len() - 1;
                            if !self.fact.spawns[idx].scoped {
                                match name {
                                    // `let h = ..`: leak unless `h` is used.
                                    Some(n) if n != "_" => self.pending.push((idx, n.clone())),
                                    // `let _ = ..` is an explicit detach;
                                    // destructurings keep the handle.
                                    _ => {}
                                }
                            }
                        }
                        match name {
                            Some(n) => self.assign(n, v),
                            None => self.bind(names, &v),
                        }
                    }
                    if let Some(eb) = else_block {
                        self.scan_block(eb);
                    }
                }
                Stmt::Expr(e) => {
                    let spawn_before = self.fact.spawns.len();
                    last = self.eval(e);
                    // A spawn in statement position (trailing `;`) drops
                    // its JoinHandle on the floor. A tail expression has
                    // no semicolon: its value flows to the enclosing
                    // `let`/field/return, so the handle is kept.
                    let dropped = self
                        .a
                        .tokens
                        .get(e.span.1 + 1)
                        .map_or(false, |t| t.text == ";");
                    if dropped && is_spawn_expr(e) && self.fact.spawns.len() > spawn_before {
                        let idx = self.fact.spawns.len() - 1;
                        if !self.fact.spawns[idx].scoped {
                            self.fact.spawns[idx].leaked = true;
                        }
                    }
                }
            }
        }
        last
    }

    /// Records `let (tx, rx) = channel()` / `sync_channel(n)` creation
    /// sites. The capacity literal distinguishes a rendezvous channel.
    fn note_channel_binding(&mut self, names: &[String], init: &Expr) {
        let ExprKind::Call { callee, args } = &init.kind else {
            return;
        };
        let ExprKind::Path(segs) = &callee.kind else {
            return;
        };
        let kind = match segs.last().map(String::as_str) {
            Some("channel") if args.is_empty() => ChanKind::Unbounded,
            Some("sync_channel") if args.len() == 1 => {
                if self.token_text(&args[0]) == Some("0") {
                    ChanKind::Rendezvous
                } else {
                    ChanKind::Bounded
                }
            }
            _ => return,
        };
        if let [tx, rx] = names {
            self.fact.channels.push(ChannelFact {
                line: init.line,
                kind,
                tx: tx.clone(),
                rx: rx.clone(),
            });
        }
    }

    /// The text of a single-token expression (a literal or bare ident).
    fn token_text(&self, e: &Expr) -> Option<&str> {
        if e.span.0 != e.span.1 {
            return None;
        }
        self.a.tokens.get(e.span.0).map(|t| t.text.as_str())
    }

    /// Binds every name a pattern introduces to `v`; an untracked value
    /// leaves earlier entries alone.
    fn bind(&mut self, names: &[String], v: &Val) {
        if !v.is_tracked() {
            return;
        }
        for n in names {
            self.env.insert(n.clone(), v.clone());
        }
    }

    /// A plain `let n = ..` or `n = ..`: the new value replaces the old,
    /// so an untracked one clears the entry.
    fn assign(&mut self, name: &str, v: Val) {
        if v.is_tracked() {
            self.env.insert(name.to_string(), v);
        } else {
            self.env.remove(name);
        }
    }

    /// Evaluates one expression: registers the calls it contains (each
    /// exactly once, arguments before the enclosing call, so call-result
    /// references always point backwards) and returns its taint.
    fn eval(&mut self, e: &Expr) -> Val {
        match &e.kind {
            ExprKind::Path(segs) => {
                if let [only] = segs.as_slice() {
                    if let Some(v) = self.env.get(only) {
                        return v.clone();
                    }
                }
                let len = segs.last().map_or(false, |s| seg_matches(s, LEN_SEGS));
                Val {
                    l: if len { Set::base() } else { Set::default() },
                    ..Val::default()
                }
            }
            ExprKind::Lit | ExprKind::Break | ExprKind::Continue | ExprKind::Unknown => {
                Val::default()
            }
            ExprKind::Macro { name, args } => {
                let argvals: Vec<Val> = args.iter().map(|a| self.eval(a)).collect();
                if PRINT_MACROS.contains(&name.as_str()) && !self.macro_lexically_secret(e) {
                    self.note_print(e, name, args, argvals);
                }
                Val::default()
            }
            ExprKind::Call { callee, args } => {
                // `thread::spawn(|| ..)`: the closure body runs on a new
                // thread, so it becomes a synthetic fact (a thread-role
                // root), not part of this function's flow.
                if let ExprKind::Path(segs) = &callee.kind {
                    if segs.len() >= 2
                        && segs.last().map(String::as_str) == Some("spawn")
                        && segs.contains(&"thread".to_string())
                    {
                        if let [arg] = args.as_slice() {
                            if matches!(arg.kind, ExprKind::Closure { .. }) {
                                self.extract_spawn(e.line, arg, false);
                                return Val::default();
                            }
                        }
                    }
                    if segs.last().map(String::as_str) == Some("sleep")
                        && segs.iter().rev().nth(1).map(String::as_str) == Some("thread")
                        && self.fact.local_sleep.is_none()
                    {
                        self.fact.local_sleep = Some(e.line);
                    }
                }
                let argvals: Vec<Val> = args.iter().map(|a| self.eval(a)).collect();
                let joined = argvals.iter().fold(Val::default(), |acc, v| acc.join(v));
                let ExprKind::Path(segs) = &callee.kind else {
                    // A computed callee never resolves: any tainted
                    // argument taints the result.
                    self.eval(callee);
                    return Val {
                        t: joined.t,
                        src: joined.src,
                        ..Val::default()
                    };
                };
                // Checked conversions and clamps: std targets, never
                // registered.
                if matches!(segs.last().map(String::as_str), Some("try_from" | "min")) {
                    return Val {
                        l: joined.l.with_checked(),
                        ..joined
                    };
                }
                let mut segs = segs.clone();
                if let (Some(first), Some(ty)) = (segs.first_mut(), &self.self_ty) {
                    if first == "Self" {
                        *first = ty.clone();
                    }
                }
                // The result is the call's alone: its summary (or, for an
                // unresolved extern, `resolve_calls`' fallback) decides
                // which arguments reach it.
                let j = self.register(CallKey::Path(segs), e.line, &argvals, args);
                Val {
                    t: Set::call(j),
                    l: Set::call(j),
                    wide: false,
                    src: joined.src,
                }
            }
            ExprKind::MethodCall { recv, method, args } => {
                // `scope.spawn(|| ..)` / `Builder::new()..spawn(|| ..)`:
                // same synthetic-fact treatment as `thread::spawn`. Scoped
                // spawns are auto-joined, so only Builder handles can leak.
                if method == "spawn" {
                    if let [arg] = args.as_slice() {
                        if matches!(arg.kind, ExprKind::Closure { .. }) {
                            let scoped = !self.span_mentions(recv, "Builder");
                            self.eval(recv);
                            self.extract_spawn(e.line, arg, scoped);
                            return Val::default();
                        }
                    }
                }
                let rv = self.eval(recv);
                let argvals: Vec<Val> = args.iter().map(|a| self.eval(a)).collect();
                if READ_METHODS.contains(&method.as_str()) || method == "accept" {
                    if receiver_is_socket(recv) && self.fact.local_block.is_none() {
                        self.fact.local_block = Some(e.line);
                    }
                }
                self.note_chan_op(e.line, method, recv);
                self.note_atomic(e.line, method, recv, args);
                if matches!(method.as_str(), "unwrap" | "expect") {
                    if let ExprKind::MethodCall { method: m2, .. } = &recv.kind {
                        if matches!(m2.as_str(), "send" | "recv") {
                            if let Some(op) = self.fact.chan_ops.last_mut() {
                                if op.line == recv.line {
                                    op.unwrapped = true;
                                }
                            }
                        }
                    }
                }
                let checked =
                    matches!(method.as_str(), "min" | "clamp" | "try_into" | "rem_euclid")
                        || method.starts_with("checked_")
                        || method.starts_with("saturating_");
                match method.as_str() {
                    "len" | "capacity" => {
                        return Val {
                            l: Set::base(),
                            ..Val::default()
                        }
                    }
                    "is_empty" | "count" => return Val::default(),
                    _ if checked => {
                        return Val {
                            l: rv.l.with_checked(),
                            ..rv
                        }
                    }
                    _ => {}
                }
                // The receiver flows through (`self -> return` is not in
                // the parameter masks); the arguments only as the callee's
                // summary or the extern fallback says.
                let j = self.register(CallKey::Method(method.clone()), e.line, &argvals, args);
                Val {
                    t: rv.t.join(&Set::call(j)),
                    l: rv.l.join(&Set::call(j)),
                    wide: rv.wide,
                    src: rv.src.or_else(|| argvals.iter().find_map(|v| v.src)),
                }
            }
            ExprKind::Field { recv, name } => {
                let rv = self.eval(recv);
                let (t, src) = if secrets::is_secret_ident(name) {
                    (Set::base(), Some(e.span.1))
                } else {
                    (rv.t, rv.src)
                };
                Val {
                    t,
                    l: if seg_matches(name, LEN_SEGS) {
                        Set::base()
                    } else {
                        Set::default()
                    },
                    wide: false,
                    src,
                }
            }
            ExprKind::Index { recv, index } => {
                let rv = self.eval(recv);
                self.eval(index);
                rv
            }
            ExprKind::Cast { expr, ty } => {
                let mut v = self.eval(expr);
                let narrow = matches!(ty.as_str(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32");
                let platform = matches!(ty.as_str(), "usize" | "isize") && v.wide;
                if (narrow || platform) && v.l.is_taint() && !v.l.checked {
                    if narrow && self.len_scoped {
                        self.fact.narrow_l = std::mem::take(&mut self.fact.narrow_l).join(&v.l);
                    }
                    self.sites.casts.push(CastSite {
                        line: e.line,
                        operand: expr.span,
                        ty: ty.clone(),
                        len: v.l.clone(),
                    });
                }
                v.wide |= ty_is_wide(ty);
                v
            }
            ExprKind::Unary { expr } | ExprKind::Try { expr } => self.eval(expr),
            ExprKind::Binary { op, lhs, rhs } => {
                let lv = self.eval(lhs);
                let rv = self.eval(rhs);
                // Comparisons yield a one-bit bool, not key material —
                // `recovered == expected` is `const-time`'s territory, and
                // letting the bool carry taint would mark every verdict
                // struct (pass/fail summaries) as secret-bearing.
                let compare = matches!(
                    op.as_str(),
                    "==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||"
                );
                let arith = matches!(op.as_str(), "&" | "%" | "+" | "*" | "/" | "^" | "|" | "-");
                // Masks and remainders bound a length. So does the
                // difference of two wide values: address arithmetic
                // yielding a span, not a `len()` that can outgrow `u32`.
                let bounded = matches!(op.as_str(), "&" | "%") || (op == "-" && lv.wide && rv.wide);
                let wide = arith && (lv.wide || rv.wide);
                let joined = lv.join(&rv);
                Val {
                    t: if compare { Set::default() } else { joined.t },
                    l: match (arith, bounded) {
                        (false, _) => Set::default(),
                        (true, false) => joined.l,
                        (true, true) => joined.l.with_checked(),
                    },
                    wide,
                    src: if compare { None } else { joined.src },
                }
            }
            ExprKind::Assign { target, value } => {
                let v = self.eval(value);
                if let ExprKind::Path(segs) = &target.kind {
                    if let [only] = segs.as_slice() {
                        self.assign(only, v);
                        return Val::default();
                    }
                }
                self.eval(target);
                Val::default()
            }
            ExprKind::Range { lo, hi } => {
                if let Some(l) = lo {
                    self.eval(l);
                }
                if let Some(h) = hi {
                    self.eval(h);
                }
                Val::default()
            }
            ExprKind::If { cond, then, els } => {
                if let ExprKind::LetCond { names, scrut } = &cond.kind {
                    let sv = self.eval(scrut);
                    self.bind(names, &sv);
                } else {
                    self.eval(cond);
                }
                let tv = self.scan_block(then);
                let ev = els.as_ref().map_or(Val::default(), |e2| self.eval(e2));
                tv.join(&ev)
            }
            ExprKind::LetCond { names, scrut } => {
                let sv = self.eval(scrut);
                self.bind(names, &sv);
                Val::default()
            }
            ExprKind::Match { scrut, arms } => {
                let sv = self.eval(scrut);
                let mut out = Val::default();
                for arm in arms {
                    self.bind(&arm.names, &sv);
                    let av = self.eval(&arm.body);
                    out = out.join(&av);
                }
                out
            }
            ExprKind::Loop { body } => {
                self.scan_block(body);
                Val::default()
            }
            ExprKind::While { cond, body } => {
                if let ExprKind::LetCond { names, scrut } = &cond.kind {
                    let sv = self.eval(scrut);
                    self.bind(names, &sv);
                } else {
                    self.eval(cond);
                }
                self.scan_block(body);
                Val::default()
            }
            ExprKind::For { names, iter, body } => {
                let iv = self.eval(iter);
                // `for msg in rx` blocks on recv every iteration.
                if let Some(endpoint) = plain_ident(iter) {
                    if self.endpoint_known(&endpoint) {
                        self.push_chan_op(iter.line, ChanOpKind::Recv, endpoint);
                    }
                }
                self.bind(names, &iv);
                self.scan_block(body);
                Val::default()
            }
            ExprKind::BlockExpr(b) => self.scan_block(b),
            ExprKind::Closure { body } => {
                self.eval(body);
                Val::default()
            }
            ExprKind::Tuple { items } => {
                let mut out = Val::default();
                for item in items {
                    let v = self.eval(item);
                    out.t = out.t.join(&v.t);
                    out.src = out.src.or(v.src);
                }
                out
            }
            ExprKind::StructLit { path, fields } => {
                let mut out = Val::default();
                let struct_name = path.rsplit("::").next().unwrap_or(path);
                let struct_name = if struct_name == "Self" {
                    self.self_ty.clone().unwrap_or_else(|| path.clone())
                } else {
                    struct_name.to_string()
                };
                for (fname, v) in fields {
                    let fv = self.eval(v);
                    if fv.t.is_taint() && !fname.is_empty() {
                        self.fact.struct_inits.push(StructInit {
                            struct_name: struct_name.clone(),
                            field: fname.clone(),
                            set: fv.t.clone(),
                        });
                    }
                    out.t = out.t.join(&fv.t);
                    out.src = out.src.or(fv.src);
                }
                out
            }
            ExprKind::Return { value } => {
                if let Some(v) = value {
                    let rv = self.eval(v);
                    self.fact.ret_t = std::mem::take(&mut self.fact.ret_t).join(&rv.t);
                    self.fact.ret_l = std::mem::take(&mut self.fact.ret_l).join(&rv.l);
                }
                Val::default()
            }
        }
    }

    /// Records a call site and returns the reference naming its result.
    fn register(&mut self, callee: CallKey, line: u32, argvals: &[Val], args: &[Expr]) -> usize {
        let j = usize::from(self.fact.call_base) + self.fact.calls.len();
        self.sites.call_args.push(
            args.iter()
                .zip(argvals)
                .map(|(a, v)| (a.span, v.src))
                .collect(),
        );
        self.fact.calls.push(CallFact {
            callee,
            line,
            args_t: argvals.iter().map(|v| v.t.clone()).collect(),
            args_l: argvals.iter().map(|v| v.l.clone()).collect(),
            args_id: args
                .iter()
                .map(|a| plain_ident(a).unwrap_or_default())
                .collect(),
        });
        j
    }

    /// Extracts a spawn-closure body into a synthetic `{fn}::spawn@{line}`
    /// fact. The environment is cloned so captured taint flows into the
    /// closure; its call references keep naming the spawner's calls,
    /// which `call_base` records. Channel endpoints in scope are
    /// inherited so ops on captured senders/receivers still resolve.
    fn extract_spawn(&mut self, line: u32, closure: &Expr, scoped: bool) {
        let ExprKind::Closure { body } = &closure.kind else {
            return;
        };
        let name = format!("{}::spawn@{}", self.fact.name, line);
        let call_base = usize::from(self.fact.call_base) + self.fact.calls.len();
        let mut sub = Extractor {
            a: self.a,
            self_ty: self.self_ty.clone(),
            env: self.env.clone(),
            params: Vec::new(),
            fact: FnFact {
                name: name.clone(),
                line,
                call_base: u16::try_from(call_base).unwrap_or(u16::MAX),
                ..FnFact::default()
            },
            sites: Sites {
                len_params: self.sites.len_params,
                ..Sites::default()
            },
            pending: Vec::new(),
            spawned: Vec::new(),
            len_scoped: self.len_scoped,
        };
        // Captured channel endpoints keep their identity inside the
        // closure body.
        sub.fact.channels = self
            .fact
            .channels
            .iter()
            .map(|c| ChannelFact {
                line: c.line,
                kind: c.kind,
                tx: c.tx.clone(),
                rx: c.rx.clone(),
            })
            .collect();
        let inherited = sub.fact.channels.len();
        let tail = sub.eval(body);
        sub.fact.ret_t = std::mem::take(&mut sub.fact.ret_t).join(&tail.t);
        sub.fact.ret_l = std::mem::take(&mut sub.fact.ret_l).join(&tail.l);
        sub.fact.local_panic = local_panic_line(self.a, closure.span.0, closure.span.1);
        resolve_spawn_bindings(
            self.a,
            closure.span.0,
            closure.span.1,
            &mut sub.fact,
            &sub.pending,
        );
        // Inherited channels were only context for op resolution; they are
        // not creation sites of the closure.
        sub.fact.channels.drain(..inherited);
        self.fact.spawns.push(SpawnFact {
            line,
            closure: name,
            scoped,
            leaked: false,
        });
        let nested = std::mem::take(&mut sub.spawned);
        self.spawned.push((sub.fact, sub.sites));
        self.spawned.extend(nested);
    }

    /// Records send/recv-family operations on a plain-ident or field
    /// receiver, and marks param endpoints in `param_send`/`param_recv`.
    fn note_chan_op(&mut self, line: u32, method: &str, recv: &Expr) {
        let op = match method {
            "send" => ChanOpKind::Send,
            "try_send" => ChanOpKind::TrySend,
            "recv" => ChanOpKind::Recv,
            "try_recv" => ChanOpKind::TryRecv,
            "recv_timeout" | "recv_deadline" => ChanOpKind::RecvTimeout,
            _ => return,
        };
        let Some(endpoint) = receiver_tail(recv) else {
            return;
        };
        self.push_chan_op(line, op, endpoint);
    }

    fn push_chan_op(&mut self, line: u32, op: ChanOpKind, endpoint: String) {
        if let Some(i) = self.params.iter().position(|p| *p == endpoint) {
            if i < 16 {
                match op {
                    ChanOpKind::Send | ChanOpKind::TrySend => self.fact.param_send |= 1 << i,
                    ChanOpKind::Recv => self.fact.param_recv |= 1 << i,
                    _ => {}
                }
            }
        }
        self.fact.chan_ops.push(ChanOp {
            line,
            op,
            unwrapped: false,
            endpoint,
        });
    }

    /// True when `name` is a channel endpoint this extractor knows about:
    /// a locally (or inherited-from-spawner) created channel binding, or a
    /// parameter whose name says it is a receiver.
    fn endpoint_known(&self, name: &str) -> bool {
        self.fact
            .channels
            .iter()
            .any(|c| c.tx == name || c.rx == name)
            || (self.params.iter().any(|p| p == name) && seg_matches(name, &["rx", "receiver"]))
    }

    /// Records atomic `store`/`load`/RMW calls with their named ordering.
    fn note_atomic(&mut self, line: u32, method: &str, recv: &Expr, args: &[Expr]) {
        let (op, ord_arg) = match method {
            "store" if args.len() == 2 => (AtomicOpKind::Store, &args[1]),
            "load" if args.len() == 1 => (AtomicOpKind::Load, &args[0]),
            "swap" if args.len() == 2 => (AtomicOpKind::Rmw, &args[1]),
            m if m.starts_with("fetch_") && args.len() == 2 => (AtomicOpKind::Rmw, &args[1]),
            m if m.starts_with("compare_exchange") && args.len() >= 4 => {
                (AtomicOpKind::Rmw, &args[2])
            }
            _ => return,
        };
        let Some(ord) = ordering_of(ord_arg) else {
            return;
        };
        let Some(name) = receiver_tail(recv) else {
            return;
        };
        let is_flag = matches!(
            args.first().and_then(|a| self.token_text(a)),
            Some("true") | Some("false")
        );
        self.fact.atomics.push(AtomicFact {
            line,
            op,
            ord,
            is_flag,
            name,
        });
    }

    /// The token span of `e` mentions `needle` as an identifier.
    fn span_mentions(&self, e: &Expr, needle: &str) -> bool {
        self.a
            .span_tokens(e.span)
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == needle)
    }

    /// Macros that lexically mention a secret identifier are
    /// `secret-print`'s findings: they neither feed the sink summary nor
    /// become print sites.
    fn macro_lexically_secret(&self, mac: &Expr) -> bool {
        self.a.span_tokens(mac.span).iter().any(|t| {
            t.kind == TokenKind::Ident
                && secrets::is_secret_ident(&t.text)
                && !matches!(t.text.as_str(), "write" | "writeln")
        })
    }

    /// A print/format macro: the secret taint of its arguments and of its
    /// `{name}` captures joins the function's sink set, and each tainted
    /// one is recorded as reaching the sink.
    fn note_print(&mut self, mac: &Expr, name: &str, args: &[Expr], argvals: Vec<Val>) {
        let a = self.a;
        // A binding holding more than parameter taint (parameters are the
        // caller's story).
        let holds_source = |v: &Val| v.t.base || !v.t.calls.is_empty();
        let mut reach = Vec::new();
        for (arg, v) in args.iter().zip(argvals) {
            if v.t.is_taint() {
                let var = a
                    .span_tokens(arg.span)
                    .iter()
                    .find(|t| {
                        t.kind == TokenKind::Ident
                            && self.env.get(&t.text).is_some_and(holds_source)
                    })
                    .map(|t| t.text.clone());
                reach.push(Reach {
                    var,
                    t: v.t,
                    src: v.src,
                });
            }
        }
        for t in a.span_tokens(mac.span) {
            if t.kind != TokenKind::Literal || !t.text.contains('{') {
                continue;
            }
            for cap in format_captures(&t.text) {
                if let Some(v) = self.env.get(&cap).filter(|v| v.t.is_taint()) {
                    reach.push(Reach {
                        t: v.t.clone(),
                        src: v.src,
                        var: Some(cap),
                    });
                }
            }
        }
        if reach.is_empty() {
            return;
        }
        for r in &reach {
            self.fact.sink_t = std::mem::take(&mut self.fact.sink_t).join(&r.t);
        }
        self.sites.prints.push(PrintSite {
            line: mac.line,
            mac: name.to_string(),
            reach,
        });
    }
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

/// Resolves a symbolic set against the per-call results computed so far.
fn resolve(s: &Set, call_res: &[(bool, u16)]) -> (bool, u16) {
    let mut base = s.base;
    let mut params = s.params;
    for &r in &s.calls {
        if let Some(&(rb, rp)) = call_res.get(r as usize) {
            base |= rb;
            params |= rp;
        }
    }
    (base, params)
}

/// Iterates the set bit positions of a parameter mask.
pub(crate) fn bits(mask: u16) -> impl Iterator<Item = usize> {
    (0..16).filter(move |i| mask & (1 << i) != 0)
}

/// A call is a secret *source* only when the secret noun is the *last*
/// word of the callee name: `derive_master_key()` and `keystream()`
/// return key material, while `seed_from_u64()` and
/// `zero_fill_key_extraction()` return RNGs / result summaries that
/// merely mention one.
fn callee_returns_secret(name: &str) -> bool {
    secrets::segments(name)
        .last()
        .map_or(false, |last| secrets::is_secret_ident(last))
}

/// Per-call resolved results for one function under the current
/// summaries: `(secret-domain, length-domain, joined callee summary)`.
type CallResolution = (Vec<(bool, u16)>, Vec<(bool, u16)>, Vec<Option<FnSummary>>);

/// The per-call results of function `id`, indexed by call reference. A
/// spawn closure's results start with its spawner's first `call_base`,
/// so values it captured resolve against the calls that produced them;
/// the summaries of its own callees are parallel to its own calls.
fn resolve_calls(g: &CallGraph, id: usize, sums: &[FnSummary]) -> CallResolution {
    let node = &g.nodes[id];
    let base = usize::from(node.fact.call_base);
    let (mut ct, mut cl) = match node.spawner {
        Some(p) if base > 0 => {
            let (ct, cl, _) = resolve_calls(g, p, sums);
            (ct, cl)
        }
        _ => (Vec::new(), Vec::new()),
    };
    ct.resize(base, (false, 0));
    cl.resize(base, (false, 0));
    let mut callee: Vec<Option<FnSummary>> = Vec::with_capacity(node.fact.calls.len());
    for call in &node.fact.calls {
        let cands = g.resolve(&call.callee, node.file);
        if cands.is_empty() {
            // Unresolved extern. The secret domain uses the lexical
            // callee-name heuristic plus the "any tainted argument taints
            // the result" rule (wrapping a key in `Ok(..)`/`Some(..)`/an
            // enum variant keeps it a key); the length domain
            // deliberately drops through.
            let mut sec = callee_returns_secret(call.callee.last_segment());
            let mut pm = 0u16;
            for s in &call.args_t {
                let r = resolve(s, &ct);
                sec |= r.0;
                pm |= r.1;
            }
            ct.push((sec, pm));
            cl.push((false, 0));
            callee.push(None);
            continue;
        }
        let cs = cands
            .iter()
            .fold(FnSummary::default(), |acc, &c| acc.join(&sums[c]));
        let mut sec = cs.returns_secret;
        let mut pm = 0u16;
        for i in bits(cs.param_to_ret) {
            if let Some(s) = call.args_t.get(i) {
                let r = resolve(s, &ct);
                sec |= r.0;
                pm |= r.1;
            }
        }
        ct.push((sec, pm));
        let mut len = cs.returns_len;
        let mut lpm = 0u16;
        for i in bits(cs.param_to_ret_len) {
            if let Some(s) = call.args_l.get(i) {
                if !s.checked {
                    let r = resolve(s, &cl);
                    len |= r.0;
                    lpm |= r.1;
                }
            }
        }
        cl.push((len, lpm));
        callee.push(Some(cs));
    }
    (ct, cl, callee)
}

fn summarize_one(g: &CallGraph, id: usize, sums: &[FnSummary]) -> FnSummary {
    let fact = &g.nodes[id].fact;
    let (ct, cl, callees) = resolve_calls(g, id, sums);
    let mut may_panic = fact.local_panic.is_some();
    let mut may_block = fact.local_block.is_some();
    let mut sink_params = 0u16;
    let mut narrow_params = 0u16;
    for (call, cs) in fact.calls.iter().zip(&callees) {
        let Some(cs) = cs else { continue };
        may_panic |= cs.may_panic;
        may_block |= cs.may_block;
        for i in bits(cs.param_to_sink) {
            if let Some(s) = call.args_t.get(i) {
                sink_params |= resolve(s, &ct).1;
            }
        }
        for i in bits(cs.param_narrowed) {
            if let Some(s) = call.args_l.get(i) {
                if !s.checked {
                    narrow_params |= resolve(s, &cl).1;
                }
            }
        }
    }
    let rt = resolve(&fact.ret_t, &ct);
    let st = resolve(&fact.sink_t, &ct);
    let (rl, nl) = (
        if fact.ret_l.checked {
            (false, 0)
        } else {
            resolve(&fact.ret_l, &cl)
        },
        if fact.narrow_l.checked {
            (false, 0)
        } else {
            resolve(&fact.narrow_l, &cl)
        },
    );
    FnSummary {
        returns_secret: rt.0,
        param_to_ret: rt.1,
        param_to_sink: st.1 | sink_params,
        returns_len: rl.0,
        param_to_ret_len: rl.1,
        param_narrowed: nl.1 | narrow_params,
        may_panic,
        may_block,
    }
}

/// Iterates summaries to fixpoint over the graph's SCCs, callees first.
/// Every summary field only ever grows (the join is a union over a finite
/// domain), so each SCC stabilizes; the `8 * |scc| + 8` bound terminates
/// the loop regardless.
pub(crate) fn fixpoint(g: &CallGraph) -> (Vec<FnSummary>, SummaryStats) {
    let n = g.nodes.len();
    let mut sums = vec![FnSummary::default(); n];
    let sccs = g.sccs();
    let mut max_scc = 0;
    for scc in &sccs {
        max_scc = max_scc.max(scc.len());
        let bound = scc.len() * 8 + 8;
        for _ in 0..bound {
            let mut changed = false;
            for &id in scc {
                let new = summarize_one(g, id, &sums);
                if new != sums[id] {
                    sums[id] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    let stats = SummaryStats {
        fns: n,
        edges: g.edges,
        sccs: sccs.len(),
        max_scc,
    };
    (sums, stats)
}

// ---------------------------------------------------------------------------
// The resolved workspace view
// ---------------------------------------------------------------------------

/// One function's check sites with its calls resolved under the
/// fixpoint: what `lossy-len-cast` and `secret-taint` read.
pub(crate) struct CheckedFn<'c> {
    graph: &'c CallGraph,
    id: usize,
    pub(crate) sites: &'c Sites,
    ct: Vec<(bool, u16)>,
    cl: Vec<(bool, u16)>,
    /// The joined callee summary of each own call; `None` for externs.
    pub(crate) callees: Vec<Option<FnSummary>>,
}

impl CheckedFn<'_> {
    /// The function's own calls, parallel to `callees` and
    /// `sites.call_args`.
    pub(crate) fn calls(&self) -> &[CallFact] {
        &self.graph.nodes[self.id].fact.calls
    }

    /// `s` carries an unchecked length in this function: an intrinsic
    /// one, a length-named parameter, or a call result returning one.
    pub(crate) fn is_len(&self, s: &Set) -> bool {
        if s.checked {
            return false;
        }
        let (base, params) = resolve(s, &self.cl);
        base || params & self.sites.len_params != 0
    }

    /// `s` carries key material read here or returned by a call made
    /// here; parameter taint is the caller's story.
    pub(crate) fn is_secret(&self, s: &Set) -> bool {
        resolve(s, &self.ct).0
    }

    /// Where the key material in `s` came from, for messages: the secret
    /// field read (`src`), else the first call that returned it.
    pub(crate) fn origin(&self, a: &Analysis, s: &Set, src: Option<usize>) -> String {
        if let Some(tok) = src.and_then(|i| a.tokens.get(i)) {
            return tok.text.clone();
        }
        s.calls
            .iter()
            .map(|&r| usize::from(r))
            .find(|&r| self.ct.get(r).is_some_and(|c| c.0))
            .and_then(|r| self.graph.call_at(self.id, r))
            .map_or_else(
                || "<expr>".to_string(),
                |call| call.callee.last_segment().to_string(),
            )
    }
}

/// The phase-one product: the call graph, the stabilized summaries, and
/// the indices phase two queries.
pub(crate) struct SummaryCtx {
    pub(crate) graph: CallGraph,
    pub(crate) summaries: Vec<FnSummary>,
    pub(crate) stats: SummaryStats,
    /// Node ids per file index.
    by_file: Vec<Vec<usize>>,
}

impl SummaryCtx {
    pub(crate) fn new(graph: CallGraph, summaries: Vec<FnSummary>, stats: SummaryStats) -> Self {
        let mut by_file = vec![Vec::new(); graph.file_paths.len()];
        for (id, node) in graph.nodes.iter().enumerate() {
            by_file[node.file].push(id);
        }
        SummaryCtx {
            graph,
            summaries,
            stats,
            by_file,
        }
    }

    /// The joined summary of a call's workspace candidates, from the
    /// perspective of `file`; `None` for unresolved externs.
    pub(crate) fn call_summary(&self, key: &CallKey, file: usize) -> Option<FnSummary> {
        let cands = self.graph.resolve(key, file);
        if cands.is_empty() {
            return None;
        }
        Some(
            cands
                .iter()
                .fold(FnSummary::default(), |acc, &c| acc.join(&self.summaries[c])),
        )
    }

    /// Resolves the check sites of file `file`'s functions under the
    /// fixpoint. `sites[k]` belongs to the file's k-th fact; extraction is
    /// deterministic, so that holds whether the graph's facts were
    /// extracted this run or loaded from the summary cache.
    pub(crate) fn checked_fns<'c>(&'c self, file: usize, sites: &'c [Sites]) -> Vec<CheckedFn<'c>> {
        sites
            .iter()
            .zip(&self.by_file[file])
            .map(|(sites, &id)| {
                let (ct, cl, callees) = resolve_calls(&self.graph, id, &self.summaries);
                CheckedFn {
                    graph: &self.graph,
                    id,
                    sites,
                    ct,
                    cl,
                    callees,
                }
            })
            .collect()
    }

    /// Hash over the (name, summary) pairs of every callee a file
    /// resolves to — the dependency half of the phase-two cache key.
    /// Editing a callee changes its summary hash, which changes this
    /// value for every dependent caller file and only them.
    pub(crate) fn file_dep_hash(&self, file: usize) -> u64 {
        let mut parts: Vec<u64> = Vec::new();
        for &id in &self.by_file[file] {
            for call in &self.graph.nodes[id].fact.calls {
                for cand in self.graph.resolve(&call.callee, file) {
                    let name = &self.graph.nodes[cand].fact.name;
                    parts.push(fnv64(name.as_bytes()) ^ self.summaries[cand].hash().rotate_left(1));
                }
            }
        }
        parts.sort_unstable();
        parts.dedup();
        let mut bytes = Vec::with_capacity(parts.len() * 8);
        for p in parts {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        fnv64(&bytes)
    }

    /// Struct-literal fields initialized from *intrinsically* secret
    /// values anywhere in the workspace, fully resolved:
    /// `(file, struct_name, field)`. Parameter-only taint does not count —
    /// whether a caller passes key material is the caller's story, and
    /// counting it would demand Drop impls on wrappers whose fields
    /// already zeroize themselves.
    pub(crate) fn secret_struct_inits(&self) -> Vec<(usize, String, String)> {
        let mut out = Vec::new();
        for (id, node) in self.graph.nodes.iter().enumerate() {
            if node.fact.struct_inits.is_empty() {
                continue;
            }
            let (ct, _, _) = resolve_calls(&self.graph, id, &self.summaries);
            for init in &node.fact.struct_inits {
                if resolve(&init.set, &ct).0 {
                    out.push((node.file, init.struct_name.clone(), init.field.clone()));
                }
            }
        }
        out
    }

    /// `panic-reachability`: service worker/connection entry points whose
    /// resolved callees can transitively panic.
    pub(crate) fn panic_reachability_findings(&self) -> Vec<Finding> {
        self.entry_findings(
            PANIC_ENTRY_SEGS,
            |s| s.may_panic,
            |entry, callee| {
                (
                    "panic-reachability",
                    format!(
                        "service path `{entry}` calls `{callee}`, which can panic; a panic \
                     here kills the worker/connection silently — return an error instead"
                    ),
                )
            },
        )
    }

    /// `blocking-in-worker`: queue workers whose resolved callees reach
    /// blocking socket IO.
    pub(crate) fn blocking_in_worker_findings(&self) -> Vec<Finding> {
        let mut out = self.entry_findings(
            WORKER_ENTRY_SEGS,
            |s| s.may_block,
            |entry, callee| {
                (
                    "blocking-in-worker",
                    format!(
                        "queue worker `{entry}` calls `{callee}`, which performs blocking \
                     socket IO; a slow peer stalls every queued job — move the IO to \
                     the connection path"
                    ),
                )
            },
        );
        // A worker doing the blocking read itself.
        for node in &self.graph.nodes {
            let path = &self.graph.file_paths[node.file];
            if !Self::entry_file(path) || !Self::entry_name(&node.fact.name, WORKER_ENTRY_SEGS) {
                continue;
            }
            if let Some(line) = node.fact.local_block {
                out.push(Finding {
                    file: path.clone(),
                    line,
                    rule: "blocking-in-worker",
                    message: format!(
                        "queue worker `{}` performs blocking socket IO; a slow peer \
                         stalls every queued job — move the IO to the connection path",
                        node.fact.name
                    ),
                    item: Some(node.fact.name.clone()),
                });
            }
        }
        out
    }

    fn entry_file(path: &str) -> bool {
        matches!(classify(path), FileKind::Lib | FileKind::Bin)
            && IO_SCOPED_PATHS.iter().any(|p| path.contains(p))
    }

    fn entry_name(name: &str, segs: &[&str]) -> bool {
        let local = name.rsplit("::").next().unwrap_or(name);
        seg_matches(local, segs)
    }

    fn entry_findings(
        &self,
        entry_segs: &[&str],
        flag: impl Fn(&FnSummary) -> bool,
        describe: impl Fn(&str, &str) -> (&'static str, String),
    ) -> Vec<Finding> {
        let mut out = Vec::new();
        for node in &self.graph.nodes {
            let path = &self.graph.file_paths[node.file];
            if !Self::entry_file(path) || !Self::entry_name(&node.fact.name, entry_segs) {
                continue;
            }
            for call in &node.fact.calls {
                let Some(cs) = self.call_summary(&call.callee, node.file) else {
                    continue;
                };
                if !flag(&cs) {
                    continue;
                }
                let callee = call.callee.display();
                let (rule, message) = describe(&node.fact.name, &callee);
                out.push(Finding {
                    file: path.clone(),
                    line: call.line,
                    rule,
                    message,
                    item: Some(callee),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Cache serialization
// ---------------------------------------------------------------------------

/// Serializes one function's facts as cache body lines (`N` for the
/// function, `C` per call, `I` per tainted struct init, `S`/`H`/`O`/`A`
/// for the v4 spawn/channel/chan-op/atomic facts).
pub(crate) fn serialize_fact(fact: &FnFact, out: &mut String, esc: impl Fn(&str) -> String) {
    out.push_str(&format!(
        "N\t{}\t{}\t{}\t{}\t{:04x}\t{:04x}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        fact.line,
        fact.local_panic.map_or("-".to_string(), |l| l.to_string()),
        fact.local_block.map_or("-".to_string(), |l| l.to_string()),
        fact.local_sleep.map_or("-".to_string(), |l| l.to_string()),
        fact.param_send,
        fact.param_recv,
        fact.call_base,
        fact.ret_t.serialize(),
        fact.ret_l.serialize(),
        fact.sink_t.serialize(),
        fact.narrow_l.serialize(),
        esc(&fact.name),
    ));
    for c in &fact.calls {
        let join = |sets: &[Set]| -> String {
            if sets.is_empty() {
                "-".to_string()
            } else {
                sets.iter()
                    .map(Set::serialize)
                    .collect::<Vec<_>>()
                    .join("|")
            }
        };
        let ids = if c.args_id.is_empty() {
            "-".to_string()
        } else {
            c.args_id.join("|")
        };
        out.push_str(&format!(
            "C\t{}\t{}\t{}\t{}\t{}\n",
            c.line,
            esc(&c.callee.serialize()),
            join(&c.args_t),
            join(&c.args_l),
            ids,
        ));
    }
    for i in &fact.struct_inits {
        out.push_str(&format!(
            "I\t{}\t{}\t{}\n",
            i.set.serialize(),
            esc(&i.struct_name),
            esc(&i.field),
        ));
    }
    for s in &fact.spawns {
        out.push_str(&format!(
            "S\t{}\t{}\t{}\t{}\n",
            s.line,
            u8::from(s.scoped),
            u8::from(s.leaked),
            esc(&s.closure),
        ));
    }
    for ch in &fact.channels {
        let kind = match ch.kind {
            ChanKind::Rendezvous => "r",
            ChanKind::Bounded => "b",
            ChanKind::Unbounded => "u",
        };
        out.push_str(&format!(
            "H\t{}\t{}\t{}\t{}\n",
            ch.line,
            kind,
            esc(&ch.tx),
            esc(&ch.rx),
        ));
    }
    for op in &fact.chan_ops {
        let kind = match op.op {
            ChanOpKind::Send => "s",
            ChanOpKind::TrySend => "ts",
            ChanOpKind::Recv => "r",
            ChanOpKind::TryRecv => "tr",
            ChanOpKind::RecvTimeout => "rt",
        };
        out.push_str(&format!(
            "O\t{}\t{}\t{}\t{}\n",
            op.line,
            kind,
            u8::from(op.unwrapped),
            esc(&op.endpoint),
        ));
    }
    for at in &fact.atomics {
        let op = match at.op {
            AtomicOpKind::Store => "s",
            AtomicOpKind::Load => "l",
            AtomicOpKind::Rmw => "m",
        };
        let ord = match at.ord {
            AtomicOrd::Relaxed => "x",
            AtomicOrd::Acquire => "a",
            AtomicOrd::Release => "r",
            AtomicOrd::AcqRel => "ar",
            AtomicOrd::SeqCst => "sc",
        };
        out.push_str(&format!(
            "A\t{}\t{}\t{}\t{}\t{}\n",
            at.line,
            op,
            ord,
            u8::from(at.is_flag),
            esc(&at.name),
        ));
    }
}

fn parse_opt_line(s: &str) -> Option<Option<u32>> {
    if s == "-" {
        Some(None)
    } else {
        s.parse().ok().map(Some)
    }
}

fn parse_sets(s: &str) -> Option<Vec<Set>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split('|').map(Set::deserialize).collect()
}

/// Parses the body lines written by [`serialize_fact`] back into facts.
/// `None` on any anomaly, making the whole record invalid.
pub(crate) fn parse_facts<'a>(
    lines: impl Iterator<Item = &'a str>,
    unesc: impl Fn(&str) -> String,
) -> Option<Vec<FnFact>> {
    let mut out: Vec<FnFact> = Vec::new();
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next()? {
            "N" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                let local_panic = parse_opt_line(parts.next()?)?;
                let local_block = parse_opt_line(parts.next()?)?;
                let local_sleep = parse_opt_line(parts.next()?)?;
                let param_send = u16::from_str_radix(parts.next()?, 16).ok()?;
                let param_recv = u16::from_str_radix(parts.next()?, 16).ok()?;
                let call_base: u16 = parts.next()?.parse().ok()?;
                let ret_t = Set::deserialize(parts.next()?)?;
                let ret_l = Set::deserialize(parts.next()?)?;
                let sink_t = Set::deserialize(parts.next()?)?;
                let narrow_l = Set::deserialize(parts.next()?)?;
                let name = unesc(parts.next()?);
                out.push(FnFact {
                    name,
                    line: line_no,
                    local_panic,
                    local_block,
                    local_sleep,
                    param_send,
                    param_recv,
                    call_base,
                    calls: Vec::new(),
                    spawns: Vec::new(),
                    channels: Vec::new(),
                    chan_ops: Vec::new(),
                    atomics: Vec::new(),
                    ret_t,
                    ret_l,
                    sink_t,
                    narrow_l,
                    struct_inits: Vec::new(),
                });
            }
            "C" => {
                let fact = out.last_mut()?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let callee = CallKey::deserialize(&unesc(parts.next()?))?;
                let args_t = parse_sets(parts.next()?)?;
                let args_l = parse_sets(parts.next()?)?;
                let ids_field = parts.next()?;
                let args_id: Vec<String> = if ids_field == "-" {
                    Vec::new()
                } else {
                    ids_field.split('|').map(str::to_string).collect()
                };
                if args_id.len() != args_t.len() {
                    return None;
                }
                fact.calls.push(CallFact {
                    callee,
                    line: line_no,
                    args_t,
                    args_l,
                    args_id,
                });
            }
            "I" => {
                let fact = out.last_mut()?;
                let set = Set::deserialize(parts.next()?)?;
                let struct_name = unesc(parts.next()?);
                let field = unesc(parts.next()?);
                fact.struct_inits.push(StructInit {
                    struct_name,
                    field,
                    set,
                });
            }
            "S" => {
                let fact = out.last_mut()?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let scoped = parts.next()? == "1";
                let leaked = parts.next()? == "1";
                let closure = unesc(parts.next()?);
                fact.spawns.push(SpawnFact {
                    line: line_no,
                    closure,
                    scoped,
                    leaked,
                });
            }
            "H" => {
                let fact = out.last_mut()?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let kind = match parts.next()? {
                    "r" => ChanKind::Rendezvous,
                    "b" => ChanKind::Bounded,
                    "u" => ChanKind::Unbounded,
                    _ => return None,
                };
                let tx = unesc(parts.next()?);
                let rx = unesc(parts.next()?);
                fact.channels.push(ChannelFact {
                    line: line_no,
                    kind,
                    tx,
                    rx,
                });
            }
            "O" => {
                let fact = out.last_mut()?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let op = match parts.next()? {
                    "s" => ChanOpKind::Send,
                    "ts" => ChanOpKind::TrySend,
                    "r" => ChanOpKind::Recv,
                    "tr" => ChanOpKind::TryRecv,
                    "rt" => ChanOpKind::RecvTimeout,
                    _ => return None,
                };
                let unwrapped = parts.next()? == "1";
                let endpoint = unesc(parts.next()?);
                fact.chan_ops.push(ChanOp {
                    line: line_no,
                    op,
                    unwrapped,
                    endpoint,
                });
            }
            "A" => {
                let fact = out.last_mut()?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let op = match parts.next()? {
                    "s" => AtomicOpKind::Store,
                    "l" => AtomicOpKind::Load,
                    "m" => AtomicOpKind::Rmw,
                    _ => return None,
                };
                let ord = match parts.next()? {
                    "x" => AtomicOrd::Relaxed,
                    "a" => AtomicOrd::Acquire,
                    "r" => AtomicOrd::Release,
                    "ar" => AtomicOrd::AcqRel,
                    "sc" => AtomicOrd::SeqCst,
                    _ => return None,
                };
                let is_flag = parts.next()? == "1";
                let name = unesc(parts.next()?);
                fact.atomics.push(AtomicFact {
                    line: line_no,
                    op,
                    ord,
                    is_flag,
                    name,
                });
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_source;

    fn facts(path: &str, src: &str) -> Vec<FnFact> {
        extract(&analyze_source(path, src))
    }

    fn graph_of(sources: &[(&str, &str)]) -> CallGraph {
        let paths: Vec<String> = sources.iter().map(|(p, _)| p.to_string()).collect();
        let all: Vec<Vec<FnFact>> = sources.iter().map(|(p, s)| facts(p, s)).collect();
        CallGraph::build(paths, all)
    }

    #[test]
    fn set_serialization_round_trips() {
        let s = Set {
            base: true,
            checked: false,
            params: 0b101,
            calls: vec![0, 7],
        };
        assert_eq!(Set::deserialize(&s.serialize()), Some(s));
        assert_eq!(
            Set::deserialize(&Set::default().serialize()),
            Some(Set::default())
        );
        assert_eq!(Set::deserialize("garbage"), None);
    }

    #[test]
    fn fact_serialization_round_trips() {
        let src = "pub fn export(s: &State) -> Vec<u8> { let k = s.master_key.clone(); k }\n\
                   pub fn show(v: &[u8]) { println!(\"{:?}\", v); }";
        let original = facts("crates/x/src/a.rs", src);
        assert_eq!(original.len(), 2);
        let mut body = String::new();
        for f in &original {
            serialize_fact(f, &mut body, |s| s.to_string());
        }
        let parsed = parse_facts(body.lines(), |s| s.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn spawn_closure_names_its_spawners_calls_through_the_cache() {
        // `ks` is the spawner's call 0; the closure's own `stash` call is
        // reference 1.
        let src = "pub fn f(addr: u64) {\n\
                   let ks = keystream(addr);\n\
                   let h = std::thread::spawn(move || stash(ks));\n\
                   let _ = h.join();\n\
                   }";
        let original = facts("crates/x/src/a.rs", src);
        assert_eq!(original.len(), 2);
        let closure = &original[1];
        assert_eq!(closure.call_base, 1);
        assert_eq!(closure.calls[0].args_t[0].calls, vec![0]);
        assert_eq!(closure.ret_t.calls, vec![1]);
        let mut body = String::new();
        for f in &original {
            serialize_fact(f, &mut body, |s| s.to_string());
        }
        let parsed = parse_facts(body.lines(), |s| s.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn returns_secret_flows_through_field_read() {
        let f = facts(
            "crates/x/src/a.rs",
            "pub fn export(s: &State) -> Vec<u8> { s.master_key.clone() }",
        );
        let g = CallGraph::build(vec!["crates/x/src/a.rs".into()], vec![f]);
        let (sums, _) = fixpoint(&g);
        assert!(sums[0].returns_secret);
    }

    #[test]
    fn param_flows_to_return_and_sink() {
        let f = facts(
            "crates/x/src/a.rs",
            "pub fn id(v: u64) -> u64 { v }\n\
             pub fn show(label: &str, v: u64) { println!(\"{}: {}\", label, v); }",
        );
        let g = CallGraph::build(vec!["crates/x/src/a.rs".into()], vec![f]);
        let (sums, _) = fixpoint(&g);
        assert_eq!(sums[0].param_to_ret, 0b1);
        assert!(!sums[0].returns_secret);
        assert_eq!(sums[1].param_to_sink, 0b11);
    }

    #[test]
    fn summaries_cross_function_boundaries() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn inner(s: &State) -> Vec<u8> { s.round_keys.to_vec() }\n\
             fn middle(s: &State) -> Vec<u8> { inner(s) }\n\
             pub fn outer(s: &State) -> Vec<u8> { middle(s) }",
        )]);
        let (sums, stats) = fixpoint(&g);
        assert!(sums.iter().all(|s| s.returns_secret), "{sums:?}");
        assert_eq!(stats.fns, 3);
        assert_eq!(stats.sccs, 3);
        assert_eq!(stats.max_scc, 1);
    }

    #[test]
    fn mutual_recursion_reaches_fixpoint() {
        // ping/pong call each other; the secret enters through `fetch`.
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn fetch(s: &S) -> u64 { s.boot_seed }\n\
             fn ping(s: &S, n: u32) -> u64 { if n == 0 { fetch(s) } else { pong(s, n) } }\n\
             fn pong(s: &S, n: u32) -> u64 { ping(s, n) }",
        )]);
        let (sums, stats) = fixpoint(&g);
        assert!(sums[1].returns_secret, "ping: {sums:?}");
        assert!(sums[2].returns_secret, "pong: {sums:?}");
        assert_eq!(stats.max_scc, 2, "ping/pong form one SCC");
    }

    #[test]
    fn self_recursive_panic_propagates_and_terminates() {
        let g = graph_of(&[(
            "crates/x/src/bin/tool.rs",
            "fn descend(n: u32) -> u32 { if n == 0 { head().unwrap() } else { descend(n) } }\n\
             fn head() -> Option<u32> { None }\n\
             fn top(n: u32) -> u32 { descend(n) }",
        )]);
        let (sums, _) = fixpoint(&g);
        assert!(sums[0].may_panic);
        assert!(sums[2].may_panic, "panic propagates through recursion");
        assert!(!sums[1].may_panic);
    }

    #[test]
    fn length_taint_propagates_through_helpers() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn span(buf: &[u8]) -> usize { buf.len() }\n\
             fn narrow(n: usize) -> u32 { n as u32 }\n\
             fn narrow_checked(n: usize) -> u32 { (n & 0xffff) as u32 }",
        )]);
        let (sums, _) = fixpoint(&g);
        assert!(sums[0].returns_len);
        assert_eq!(sums[1].param_narrowed, 0b1);
        assert_eq!(sums[2].param_narrowed, 0, "masked cast is checked");
    }

    #[test]
    fn suppressed_panic_is_not_reachability_gen() {
        let f = facts(
            "crates/x/src/a.rs",
            "pub fn a() {\n    // lint:allow(panic): checked above\n    x.unwrap();\n}\n\
             pub fn b() { y.unwrap(); }",
        );
        assert_eq!(f[0].local_panic, None);
        assert_eq!(f[1].local_panic, Some(5));
    }

    #[test]
    fn extraction_skips_tests_and_test_files() {
        assert!(facts("crates/x/tests/t.rs", "fn helper() { x.unwrap(); }").is_empty());
        let f = facts(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\npub fn real() {}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "real");
    }

    #[test]
    fn worker_reaching_socket_read_is_flagged() {
        let g = graph_of(&[(
            "crates/x/src/service.rs",
            "fn drain(stream: &mut TcpStream) -> usize {\n\
                 let mut b = [0u8; 64];\n\
                 stream.read(&mut b).unwrap_or(0)\n\
             }\n\
             pub fn worker_loop(stream: &mut TcpStream) { let _n = drain(stream); }",
        )]);
        let (sums, stats) = fixpoint(&g);
        let ctx = SummaryCtx::new(g, sums, stats);
        let found = ctx.blocking_in_worker_findings();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "blocking-in-worker");
        assert!(found[0].message.contains("worker_loop"));
        // The same graph, entered from a connection handler, is fine.
        assert!(ctx.panic_reachability_findings().is_empty());
    }
}
