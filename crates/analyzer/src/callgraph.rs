//! Workspace call graph over the per-file [`crate::summaries`] facts.
//!
//! Resolution is name-based on the same AST the rules already use: a
//! qualified call `Type::method(..)` resolves exactly, a bare call
//! `helper(..)` resolves to free functions of that name, and a method
//! call `recv.method(..)` resolves to every `Type::method` in the
//! workspace. Candidates from the caller's own file are preferred, then
//! the caller's crate, then the whole workspace — so two demo binaries
//! both defining `run()` never pollute each other's summaries. Anything
//! that resolves to nothing (std, external crates) is an *unresolved
//! extern*: `summaries::resolve_calls` gives those the callee-name
//! heuristic (a name ending in a secret noun returns key material) and
//! lets any tainted argument taint the result, so the analysis is
//! tolerant of the workspace's edges.
//!
//! The graph also computes strongly connected components (iterative
//! Tarjan — recursion depth is attacker-, well, workspace-controlled)
//! in reverse topological order, which is exactly the order the summary
//! fixpoint wants: callees stabilize before their callers.

use std::collections::HashMap;

use crate::engine::crate_of;
use crate::summaries::{CallFact, FnFact};

/// Candidate cap: a name resolving to more targets than this (a generic
/// method name like `write`) is treated as unresolved rather than joining
/// half the workspace into one summary.
const MAX_CANDIDATES: usize = 4;

/// A lexical call target before resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CallKey {
    /// `a::b::f(..)` — path segments as written (`Self` already rewritten
    /// to the enclosing impl type at extraction).
    Path(Vec<String>),
    /// `recv.m(..)` — only the method name is known lexically.
    Method(String),
}

impl CallKey {
    /// The callee's display name for messages and hashes.
    pub(crate) fn display(&self) -> String {
        match self {
            CallKey::Path(segs) => segs.join("::"),
            CallKey::Method(m) => format!(".{m}()"),
        }
    }

    /// The last name segment, for the lexical extern fallback.
    pub(crate) fn last_segment(&self) -> &str {
        match self {
            CallKey::Path(segs) => segs.last().map_or("", String::as_str),
            CallKey::Method(m) => m.as_str(),
        }
    }

    /// Serializes to the cache's one-field form (`p:a::b` / `m:name`).
    pub(crate) fn serialize(&self) -> String {
        match self {
            CallKey::Path(segs) => format!("p:{}", segs.join("::")),
            CallKey::Method(m) => format!("m:{m}"),
        }
    }

    /// Parses the [`CallKey::serialize`] form.
    pub(crate) fn deserialize(s: &str) -> Option<CallKey> {
        let (tag, rest) = s.split_once(':')?;
        match tag {
            "p" => Some(CallKey::Path(
                rest.split("::").map(str::to_string).collect(),
            )),
            "m" => Some(CallKey::Method(rest.to_string())),
            _ => None,
        }
    }
}

/// One function in the workspace-wide table.
#[derive(Debug)]
pub(crate) struct FnNode {
    /// Index into the engine's file list.
    pub(crate) file: usize,
    /// The function's facts (owned here after graph construction).
    pub(crate) fact: FnFact,
    /// For a spawn-closure fact (`{fn}::spawn@{line}`): the node of the
    /// function that spawned it, whose calls its captured values name.
    pub(crate) spawner: Option<usize>,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub(crate) struct CallGraph {
    pub(crate) nodes: Vec<FnNode>,
    /// Workspace-relative path per file index (for crate/file preference
    /// and for attaching findings).
    pub(crate) file_paths: Vec<String>,
    /// `Type::method` and bare free-function names -> node ids.
    qualified: HashMap<String, Vec<usize>>,
    /// method name -> node ids of every `*::method`.
    methods: HashMap<String, Vec<usize>>,
    /// Total resolved call edges (stats).
    pub(crate) edges: usize,
}

impl CallGraph {
    /// Builds the graph from per-file extraction results. `facts[i]`
    /// belongs to `file_paths[i]`.
    pub(crate) fn build(file_paths: Vec<String>, facts: Vec<Vec<FnFact>>) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut qualified: HashMap<String, Vec<usize>> = HashMap::new();
        let mut methods: HashMap<String, Vec<usize>> = HashMap::new();
        for (file, file_facts) in facts.into_iter().enumerate() {
            for fact in file_facts {
                let id = nodes.len();
                qualified.entry(fact.name.clone()).or_default().push(id);
                if let Some((_, m)) = fact.name.rsplit_once("::") {
                    methods.entry(m.to_string()).or_default().push(id);
                }
                // Extraction emits a spawner before its closures.
                let spawner = fact.name.rsplit_once("::spawn@").and_then(|(outer, _)| {
                    let ids = qualified.get(outer)?;
                    ids.iter().rev().copied().find(|&p| nodes[p].file == file)
                });
                nodes.push(FnNode {
                    file,
                    fact,
                    spawner,
                });
            }
        }
        let mut g = CallGraph {
            nodes,
            file_paths,
            qualified,
            methods,
            edges: 0,
        };
        let mut edges = 0;
        for id in 0..g.nodes.len() {
            let file = g.nodes[id].file;
            for j in 0..g.nodes[id].fact.calls.len() {
                let target = g.nodes[id].fact.calls[j].callee.clone();
                edges += g.resolve(&target, file).len();
            }
        }
        g.edges = edges;
        g
    }

    /// Resolves a call key from the perspective of `caller_file`:
    /// same-file candidates win, then same-crate, then workspace-wide,
    /// capped at [`MAX_CANDIDATES`]. Empty means unresolved extern.
    pub(crate) fn resolve(&self, target: &CallKey, caller_file: usize) -> Vec<usize> {
        let all: &[usize] = match target {
            CallKey::Method(m) => self.methods.get(m).map_or(&[], Vec::as_slice),
            CallKey::Path(segs) => {
                let qualified = if segs.len() >= 2 {
                    let name = format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1]);
                    self.qualified.get(&name).map(Vec::as_slice)
                } else {
                    None
                };
                match qualified {
                    Some(ids) => ids,
                    None => segs
                        .last()
                        .and_then(|last| self.qualified.get(last))
                        .map_or(&[], Vec::as_slice),
                }
            }
        };
        let narrowed = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
            all.iter().copied().filter(|&id| pred(id)).collect()
        };
        let same_file = narrowed(&|id| self.nodes[id].file == caller_file);
        let picked = if !same_file.is_empty() {
            same_file
        } else {
            let caller_crate = crate_of(&self.file_paths[caller_file]);
            let same_crate =
                narrowed(&|id| crate_of(&self.file_paths[self.nodes[id].file]) == caller_crate);
            if !same_crate.is_empty() {
                same_crate
            } else {
                all.to_vec()
            }
        };
        if picked.len() > MAX_CANDIDATES {
            Vec::new()
        } else {
            picked
        }
    }

    /// The call that reference `r` of function `id` names: one of its
    /// own, or, below a spawn closure's `call_base`, one of its
    /// spawner's.
    pub(crate) fn call_at(&self, id: usize, r: usize) -> Option<&CallFact> {
        let node = &self.nodes[id];
        match r.checked_sub(usize::from(node.fact.call_base)) {
            Some(own) => node.fact.calls.get(own),
            None => self.call_at(node.spawner?, r),
        }
    }

    /// Strongly connected components in reverse topological order
    /// (callees before callers), via iterative Tarjan.
    pub(crate) fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|id| {
                let file = self.nodes[id].file;
                let mut out: Vec<usize> = self.nodes[id]
                    .fact
                    .calls
                    .iter()
                    .flat_map(|c| self.resolve(&c.callee, file))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        let mut next_index = 0usize;
        // Explicit DFS frames: (node, next child position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            frames.push((start, 0));
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                if *child == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj[v].get(*child) {
                    *child += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summaries::{CallFact, FnFact};

    fn fact(name: &str, calls: &[CallKey]) -> FnFact {
        FnFact {
            name: name.to_string(),
            calls: calls
                .iter()
                .map(|k| CallFact {
                    callee: k.clone(),
                    ..CallFact::default()
                })
                .collect(),
            ..FnFact::default()
        }
    }

    fn path(name: &str) -> CallKey {
        CallKey::Path(name.split("::").map(str::to_string).collect())
    }

    #[test]
    fn key_serialization_round_trips() {
        for key in [path("a::b::f"), path("f"), CallKey::Method("m".into())] {
            assert_eq!(CallKey::deserialize(&key.serialize()), Some(key));
        }
        assert_eq!(CallKey::deserialize("x:wat"), None);
    }

    #[test]
    fn same_crate_candidates_shadow_foreign_ones() {
        let g = CallGraph::build(
            vec![
                "crates/a/src/lib.rs".into(),
                "crates/a/src/caller.rs".into(),
                "crates/b/src/lib.rs".into(),
            ],
            vec![
                vec![fact("run", &[])],
                vec![fact("caller", &[path("run")])],
                vec![fact("run", &[])],
            ],
        );
        let resolved = g.resolve(&path("run"), 1);
        assert_eq!(resolved.len(), 1);
        assert_eq!(g.nodes[resolved[0]].file, 0);
        // From crate b, its own `run` wins instead.
        assert_eq!(g.resolve(&path("run"), 2), vec![2]);
    }

    #[test]
    fn qualified_beats_bare_and_methods_fan_out() {
        let g = CallGraph::build(
            vec!["crates/a/src/lib.rs".into()],
            vec![vec![
                fact("Aes::expand", &[]),
                fact("expand", &[]),
                fact("Chacha::expand", &[]),
            ]],
        );
        assert_eq!(g.resolve(&path("Aes::expand"), 0), vec![0]);
        assert_eq!(g.resolve(&path("expand"), 0), vec![1]);
        let mut m = g.resolve(&CallKey::Method("expand".into()), 0);
        m.sort_unstable();
        assert_eq!(m, vec![0, 2]);
        assert!(g.resolve(&path("no_such_fn"), 0).is_empty());
    }

    #[test]
    fn sccs_come_out_callees_first() {
        // a -> b -> c, with {b, c} mutually recursive.
        let g = CallGraph::build(
            vec!["crates/a/src/lib.rs".into()],
            vec![vec![
                fact("a", &[path("b")]),
                fact("b", &[path("c")]),
                fact("c", &[path("b")]),
            ]],
        );
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        let mut cycle = sccs[0].clone();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2], "the b<->c cycle stabilizes first");
        assert_eq!(sccs[1], vec![0]);
    }
}
