//! v4 concurrency rules, keyed on the thread-role graph.
//!
//! Four families, all workspace passes over the summary facts (so they
//! are interprocedural for free — roles travel the resolved call graph,
//! and channel endpoints follow plain-ident arguments one call deep):
//!
//! * `atomic-ordering` — a `Relaxed` store that publishes a value other
//!   threads read. RMW updates (`fetch_add` cursors, metrics counters)
//!   and literal-bool cancel flags are the allowed patterns; everything
//!   else needs Release/Acquire or a justified `lint.toml` allow.
//! * `blocking-in-event-loop` — `thread::sleep`, blocking socket IO, or
//!   an unbounded blocking `recv` reachable on an event-loop thread (and
//!   sleep/unbounded-recv on per-connection handler threads). Findings
//!   land on the *local* hazard site with the spawn-site provenance in
//!   the message, so a sleep two calls deep is still caught and still
//!   points at the line to fix.
//! * `channel-deadlock` — both ends of a rendezvous (`sync_channel(0)`)
//!   reachable on the same thread, and `.unwrap()`ed sends whose receiver
//!   lives on a different thread (the recycle-loop shutdown race: the
//!   peer exiting first turns a normal disconnect into a panic).
//! * `join-leak` — a `thread::spawn`/`Builder::spawn` JoinHandle that is
//!   neither used nor explicitly discarded with `let _ =`. Scoped spawns
//!   are exempt (the scope joins them).

use std::collections::{HashMap, HashSet};

use crate::dataflow::seg_matches;
use crate::diag::Finding;
use crate::summaries::{
    AtomicOpKind, AtomicOrd, ChanKind, ChanOpKind, ChannelFact, FnFact, SummaryCtx,
};
use crate::threads::{self, ThreadRole, ThreadRoles, ALL_ROLES};

/// Atomic names that are cooperative flags by construction: a literal
/// bool store with one of these segments carries no payload to publish.
const CANCEL_FLAG_SEGS: &[&str] = &["cancel", "cancelled", "canceled"];

/// Runs every concurrency rule over the resolved workspace.
pub(crate) fn findings(ctx: &SummaryCtx) -> Vec<Finding> {
    let roles = threads::build(ctx);
    let mut out = Vec::new();
    blocking_in_event_loop(ctx, &roles, &mut out);
    atomic_ordering(ctx, &roles, &mut out);
    channel_deadlock(ctx, &mut out);
    join_leak(ctx, &mut out);
    // A node can carry several roles; keep one finding per site.
    let mut seen: HashSet<(String, u32, &'static str)> = HashSet::new();
    out.retain(|f| seen.insert((f.file.clone(), f.line, f.rule)));
    out
}

fn local_name(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

/// The channels visible to a node: its own creation sites, plus — for a
/// spawn closure — the spawning function's (captured endpoints).
fn channel_env<'a>(ctx: &'a SummaryCtx, id: usize) -> Vec<&'a ChannelFact> {
    let node = &ctx.graph.nodes[id];
    let mut out: Vec<&ChannelFact> = node.fact.channels.iter().collect();
    if let Some(pos) = node.fact.name.rfind("::spawn@") {
        let parent = &node.fact.name[..pos];
        if let Some(pf) = ctx
            .graph
            .nodes
            .iter()
            .find(|n| n.file == node.file && n.fact.name == parent)
        {
            out.extend(pf.fact.channels.iter());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// blocking-in-event-loop
// ---------------------------------------------------------------------------

fn blocking_in_event_loop(ctx: &SummaryCtx, roles: &ThreadRoles, out: &mut Vec<Finding>) {
    for (id, node) in ctx.graph.nodes.iter().enumerate() {
        for role in [ThreadRole::EventLoop, ThreadRole::ConnHandler] {
            if !roles.has_role(id, role) {
                continue;
            }
            let who = roles.provenance(ctx, id, role);
            let path = &ctx.graph.file_paths[node.file];
            let item = Some(local_name(&node.fact.name).to_string());
            if let Some(line) = node.fact.local_sleep {
                out.push(Finding {
                    file: path.clone(),
                    line,
                    rule: "blocking-in-event-loop",
                    message: format!(
                        "`thread::sleep` in `{}` runs on the {who}; every connection \
                         it multiplexes waits out the sleep — poll with a timeout or \
                         use a capped backoff that resets on activity",
                        node.fact.name
                    ),
                    item: item.clone(),
                });
            }
            if role == ThreadRole::EventLoop {
                if let Some(line) = node.fact.local_block {
                    out.push(Finding {
                        file: path.clone(),
                        line,
                        rule: "blocking-in-event-loop",
                        message: format!(
                            "blocking socket IO in `{}` runs on the {who}; one slow \
                             peer stalls every connection — use nonblocking sockets \
                             or move the IO off the poll thread",
                            node.fact.name
                        ),
                        item: item.clone(),
                    });
                }
            }
            let env = channel_env(ctx, id);
            for op in &node.fact.chan_ops {
                if op.op != ChanOpKind::Recv {
                    continue;
                }
                let unbounded = env
                    .iter()
                    .any(|c| c.rx == op.endpoint && c.kind == ChanKind::Unbounded);
                if unbounded {
                    out.push(Finding {
                        file: path.clone(),
                        line: op.line,
                        rule: "blocking-in-event-loop",
                        message: format!(
                            "blocking `recv()` on unbounded channel `{}` in `{}` runs \
                             on the {who}; an empty queue parks the thread indefinitely \
                             — use try_recv/recv_timeout in the loop",
                            op.endpoint, node.fact.name
                        ),
                        item: item.clone(),
                    });
                }
            }
            // One call level deep: handing a local unbounded receiver to a
            // callee that blocks on it.
            for call in &node.fact.calls {
                for (i, arg) in call.args_id.iter().enumerate() {
                    if arg.is_empty() || i >= 16 {
                        continue;
                    }
                    let unbounded = env
                        .iter()
                        .any(|c| c.rx == *arg && c.kind == ChanKind::Unbounded);
                    if !unbounded {
                        continue;
                    }
                    let recvs = ctx
                        .graph
                        .resolve(&call.callee, node.file)
                        .iter()
                        .any(|&c| ctx.graph.nodes[c].fact.param_recv & (1 << i) != 0);
                    if recvs {
                        out.push(Finding {
                            file: path.clone(),
                            line: call.line,
                            rule: "blocking-in-event-loop",
                            message: format!(
                                "`{}` blocks on unbounded receiver `{}` passed from \
                                 `{}`, which runs on the {who} — use \
                                 try_recv/recv_timeout in the loop",
                                call.callee.display(),
                                arg,
                                node.fact.name
                            ),
                            item: item.clone(),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

fn atomic_ordering(ctx: &SummaryCtx, roles: &ThreadRoles, out: &mut Vec<Finding>) {
    // Where is each atomic name loaded, and on which thread roles? Used
    // only to make messages concrete — the rule itself flags the store.
    let mut readers: HashMap<&str, HashSet<&'static str>> = HashMap::new();
    for (id, node) in ctx.graph.nodes.iter().enumerate() {
        for at in &node.fact.atomics {
            if at.op != AtomicOpKind::Load {
                continue;
            }
            let entry = readers.entry(at.name.as_str()).or_default();
            let mut any = false;
            for role in ALL_ROLES {
                if roles.has_role(id, role) {
                    entry.insert(role.label());
                    any = true;
                }
            }
            if !any {
                entry.insert("main");
            }
        }
    }
    for node in &ctx.graph.nodes {
        for at in &node.fact.atomics {
            if at.op != AtomicOpKind::Store || at.ord != AtomicOrd::Relaxed {
                continue;
            }
            if at.is_flag && seg_matches(&at.name, CANCEL_FLAG_SEGS) {
                continue; // cooperative cancel flag: the allowed pattern
            }
            let read_by = readers.get(at.name.as_str()).map_or_else(String::new, |r| {
                let mut labels: Vec<&str> = r.iter().copied().collect();
                labels.sort_unstable();
                format!(" (loaded on: {})", labels.join(", "))
            });
            out.push(Finding {
                file: ctx.graph.file_paths[node.file].clone(),
                line: at.line,
                rule: "atomic-ordering",
                message: format!(
                    "`{}.store(_, Ordering::Relaxed)` in `{}` publishes with no \
                     release edge{read_by}; readers may observe it before the writes \
                     it guards — store(Release)/load(Acquire) for real handoffs, or a \
                     one-line lint.toml allow for monotonic gauges",
                    at.name, node.fact.name
                ),
                item: Some(at.name.clone()),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// channel-deadlock
// ---------------------------------------------------------------------------

/// Whether a context (one function fact) can reach a send/recv on the
/// named endpoint: a local op, or passing the endpoint to a callee that
/// operates on that parameter.
fn reaches_op(
    ctx: &SummaryCtx,
    fact: &FnFact,
    file: usize,
    endpoint: &str,
    send: bool,
) -> Option<u32> {
    for op in &fact.chan_ops {
        let hit = if send {
            op.op == ChanOpKind::Send
        } else {
            op.op == ChanOpKind::Recv
        };
        if hit && op.endpoint == endpoint {
            return Some(op.line);
        }
    }
    for call in &fact.calls {
        for (i, arg) in call.args_id.iter().enumerate() {
            if arg != endpoint || i >= 16 {
                continue;
            }
            let bit = 1u16 << i;
            let hits = ctx.graph.resolve(&call.callee, file).iter().any(|&c| {
                let f = &ctx.graph.nodes[c].fact;
                if send {
                    f.param_send & bit != 0
                } else {
                    f.param_recv & bit != 0
                }
            });
            if hits {
                return Some(call.line);
            }
        }
    }
    None
}

fn channel_deadlock(ctx: &SummaryCtx, out: &mut Vec<Finding>) {
    let g = &ctx.graph;
    let mut by_name: HashMap<(usize, &str), usize> = HashMap::new();
    for (id, node) in g.nodes.iter().enumerate() {
        by_name.insert((node.file, node.fact.name.as_str()), id);
    }
    for node in g.nodes.iter() {
        if node.fact.channels.is_empty() {
            continue;
        }
        // The contexts both endpoints can land in: the creating function
        // itself plus each thread it spawns.
        let mut contexts: Vec<&FnFact> = vec![&node.fact];
        for spawn in &node.fact.spawns {
            if let Some(&c) = by_name.get(&(node.file, spawn.closure.as_str())) {
                contexts.push(&g.nodes[c].fact);
            }
        }
        let path = &g.file_paths[node.file];
        for ch in &node.fact.channels {
            // Rendezvous: send blocks until recv arrives, so both ends
            // reachable in the same context is a self-deadlock.
            if ch.kind == ChanKind::Rendezvous {
                for fact in &contexts {
                    let send = reaches_op(ctx, fact, node.file, &ch.tx, true);
                    let recv = reaches_op(ctx, fact, node.file, &ch.rx, false);
                    if let (Some(send_line), Some(_)) = (send, recv) {
                        out.push(Finding {
                            file: path.clone(),
                            line: send_line,
                            rule: "channel-deadlock",
                            message: format!(
                                "rendezvous channel `({}, {})` (sync_channel(0), \
                                 {path}:{}): send and recv are both reachable in \
                                 `{}` — the send blocks until a receiver arrives on \
                                 another thread, so this self-deadlocks",
                                ch.tx, ch.rx, ch.line, fact.name
                            ),
                            item: Some(local_name(&fact.name).to_string()),
                        });
                    }
                }
            }
            // Cross-thread send with the Result unwrapped: the receiving
            // thread exiting first (panic, early return, shutdown) turns
            // a normal disconnect into a sender panic.
            for (ci, fact) in contexts.iter().enumerate() {
                for op in &fact.chan_ops {
                    if op.op != ChanOpKind::Send || !op.unwrapped || op.endpoint != ch.tx {
                        continue;
                    }
                    let receiver_elsewhere = contexts.iter().enumerate().any(|(cj, other)| {
                        cj != ci && other.chan_ops.iter().any(|o| o.endpoint == ch.rx)
                    });
                    if receiver_elsewhere {
                        out.push(Finding {
                            file: path.clone(),
                            line: op.line,
                            rule: "channel-deadlock",
                            message: format!(
                                "`{}.send(..).unwrap()` in `{}`: the receiver `{}` \
                                 lives on another thread that can exit first, turning \
                                 shutdown into a panic — `let _ = send(..)` or match \
                                 the Err to stop cleanly",
                                ch.tx, fact.name, ch.rx
                            ),
                            item: Some(local_name(&fact.name).to_string()),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// join-leak
// ---------------------------------------------------------------------------

fn join_leak(ctx: &SummaryCtx, out: &mut Vec<Finding>) {
    for node in &ctx.graph.nodes {
        for spawn in &node.fact.spawns {
            if spawn.scoped || !spawn.leaked {
                continue;
            }
            out.push(Finding {
                file: ctx.graph.file_paths[node.file].clone(),
                line: spawn.line,
                rule: "join-leak",
                message: format!(
                    "spawned thread's JoinHandle is dropped implicitly in `{}`; its \
                     panic is lost and shutdown cannot wait for it — keep the handle \
                     and join it, or write `let _ = thread::spawn(..)` to detach \
                     explicitly",
                    node.fact.name
                ),
                item: Some(local_name(&node.fact.name).to_string()),
            });
        }
    }
}
