//! The thread-role graph: which functions run on which kind of thread.
//!
//! v4's concurrency rules need to know *where* code executes, not just
//! what it does. Every spawn site extracted by [`crate::summaries`]
//! produced a synthetic closure fact (`{fn}::spawn@{line}`); those are
//! the roots here. Each root gets a role inferred from the names in play
//! (the spawning function, the closure's direct callees) and from channel
//! shape (a closure feeding a rendezvous channel is a pipeline producer),
//! then the role propagates breadth-first through resolved call edges —
//! so a blocking call two helpers deep from the spawn site carries the
//! event-loop role even though nothing on the path is *named* like an
//! event loop. Spawn edges are deliberately not crossed: a thread spawned
//! from an event loop is its own root with its own role.
//!
//! Functions with no role run on the main thread (or a caller whose role
//! we cannot see); the rules in [`crate::concurrency`] only fire on
//! role-carrying nodes, keeping the pass false-positive-shy.

use std::collections::HashMap;

use crate::dataflow::seg_matches;
use crate::summaries::{ChanKind, ChanOpKind, FnFact, SummaryCtx};

/// What kind of thread a spawn site creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadRole {
    /// A poll/readiness loop multiplexing many connections — must never
    /// block.
    EventLoop,
    /// A per-connection (or acceptor) thread: owns one socket and may
    /// block on it, but must not sleep or drain unbounded queues.
    ConnHandler,
    /// A queue worker: blocking on its own job queue is its purpose.
    QueueWorker,
    /// A pipeline producer feeding a rendezvous/bounded channel.
    Producer,
    /// Any other spawned thread.
    Generic,
}

impl ThreadRole {
    pub(crate) fn idx(self) -> usize {
        match self {
            ThreadRole::EventLoop => 0,
            ThreadRole::ConnHandler => 1,
            ThreadRole::QueueWorker => 2,
            ThreadRole::Producer => 3,
            ThreadRole::Generic => 4,
        }
    }

    fn bit(self) -> u8 {
        1 << self.idx()
    }

    pub(crate) fn label(self) -> &'static str {
        match self {
            ThreadRole::EventLoop => "event-loop",
            ThreadRole::ConnHandler => "connection-handler",
            ThreadRole::QueueWorker => "queue-worker",
            ThreadRole::Producer => "pipeline-producer",
            ThreadRole::Generic => "spawned",
        }
    }
}

pub(crate) const ALL_ROLES: [ThreadRole; 5] = [
    ThreadRole::EventLoop,
    ThreadRole::ConnHandler,
    ThreadRole::QueueWorker,
    ThreadRole::Producer,
    ThreadRole::Generic,
];

/// One spawn site acting as a role root.
#[derive(Debug, Clone)]
pub(crate) struct RoleRoot {
    pub(crate) role: ThreadRole,
    /// File index of the spawn site.
    pub(crate) file: usize,
    pub(crate) line: u32,
    /// The function containing the spawn.
    pub(crate) spawner: String,
}

/// Role assignment for every call-graph node.
pub(crate) struct ThreadRoles {
    /// Role bitmask per node id.
    roles: Vec<u8>,
    /// Representative root per `(node, role)`, for finding messages.
    root_of: HashMap<(usize, usize), usize>,
    pub(crate) roots: Vec<RoleRoot>,
}

impl ThreadRoles {
    pub(crate) fn has_role(&self, node: usize, role: ThreadRole) -> bool {
        self.roles.get(node).map_or(false, |r| r & role.bit() != 0)
    }

    pub(crate) fn root_for(&self, node: usize, role: ThreadRole) -> Option<&RoleRoot> {
        self.root_of
            .get(&(node, role.idx()))
            .map(|&r| &self.roots[r])
    }

    /// "event-loop thread spawned at crates/cluster/src/server.rs:151" —
    /// the provenance clause findings append.
    pub(crate) fn provenance(&self, ctx: &SummaryCtx, node: usize, role: ThreadRole) -> String {
        match self.root_for(node, role) {
            Some(root) => format!(
                "{} thread spawned in `{}` ({}:{})",
                root.role.label(),
                root.spawner,
                ctx.graph.file_paths[root.file],
                root.line
            ),
            None => format!("{} thread", role.label()),
        }
    }
}

/// Name segments that vote for each role, checked in precedence order —
/// `worker_loop` must classify as a worker even though it ends in `loop`.
const WORKER_SEGS: &[&str] = &["worker", "job"];
const CONN_SEGS: &[&str] = &[
    "handle",
    "handler",
    "connection",
    "conn",
    "client",
    "accept",
    "session",
];
const EVENT_SEGS: &[&str] = &["event", "poll", "react", "select"];
const PRODUCER_SEGS: &[&str] = &[
    "producer",
    "produce",
    "pipeline",
    "pipelined",
    "decode",
    "prefetch",
    "feed",
];

/// Builds the role graph for the whole workspace.
pub(crate) fn build(ctx: &SummaryCtx) -> ThreadRoles {
    let g = &ctx.graph;
    let mut by_name: HashMap<(usize, &str), usize> = HashMap::new();
    for (id, node) in g.nodes.iter().enumerate() {
        by_name.insert((node.file, node.fact.name.as_str()), id);
    }

    let mut roles = vec![0u8; g.nodes.len()];
    let mut root_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut roots: Vec<RoleRoot> = Vec::new();
    let mut queue: Vec<(usize, ThreadRole, usize)> = Vec::new();

    for node in g.nodes.iter() {
        for spawn in &node.fact.spawns {
            let Some(&closure) = by_name.get(&(node.file, spawn.closure.as_str())) else {
                continue;
            };
            let role = infer_role(&node.fact, &g.nodes[closure].fact);
            let root_idx = roots.len();
            roots.push(RoleRoot {
                role,
                file: node.file,
                line: spawn.line,
                spawner: node.fact.name.clone(),
            });
            queue.push((closure, role, root_idx));
        }
    }

    // BFS through resolved call edges; each (node, role) is visited once,
    // keeping its first (nearest-root) provenance.
    let mut head = 0;
    while head < queue.len() {
        let (id, role, root_idx) = queue[head];
        head += 1;
        if roles[id] & role.bit() != 0 {
            continue;
        }
        roles[id] |= role.bit();
        root_of.insert((id, role.idx()), root_idx);
        for call in &g.nodes[id].fact.calls {
            for cand in g.resolve(&call.callee, g.nodes[id].file) {
                if roles[cand] & role.bit() == 0 {
                    queue.push((cand, role, root_idx));
                }
            }
        }
    }

    ThreadRoles {
        roles,
        root_of,
        roots,
    }
}

/// Infers a spawn closure's role from the names in play and the channel
/// shape. Precedence matters: worker beats conn beats event-loop, so
/// `worker_loop` never reads as an event loop via its `loop` segment.
fn infer_role(spawner: &FnFact, closure: &FnFact) -> ThreadRole {
    let mut names: Vec<&str> = vec![local_name(&spawner.name)];
    for call in &closure.calls {
        names.push(call.callee.last_segment());
    }
    let vote = |segs: &[&str]| names.iter().any(|n| seg_matches(n, segs));
    if vote(WORKER_SEGS) {
        return ThreadRole::QueueWorker;
    }
    if vote(CONN_SEGS) {
        return ThreadRole::ConnHandler;
    }
    if vote(EVENT_SEGS) {
        return ThreadRole::EventLoop;
    }
    if vote(PRODUCER_SEGS) || feeds_handoff_channel(spawner, closure) {
        return ThreadRole::Producer;
    }
    ThreadRole::Generic
}

fn local_name(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

/// The closure sends on a rendezvous/bounded channel created by the
/// spawning function — the pipelined decode/scan producer shape.
fn feeds_handoff_channel(spawner: &FnFact, closure: &FnFact) -> bool {
    closure.chan_ops.iter().any(|op| {
        matches!(op.op, ChanOpKind::Send | ChanOpKind::TrySend)
            && spawner.channels.iter().any(|c| {
                c.tx == op.endpoint && matches!(c.kind, ChanKind::Rendezvous | ChanKind::Bounded)
            })
    })
}
