//! Workspace call graph over [`crate::parser`] items.
//!
//! The graph is deliberately *over-approximate*: whenever a call site
//! cannot be resolved to a unique `fn`, edges are added to **every**
//! candidate. A reachability rule built on this graph can therefore
//! report false positives (silenced with an allow entry or a
//! `// mdlint::cold` marker) but never misses a real path — the safe
//! direction for panic/allocation policing. Resolution rules, in order:
//!
//! 1. `self.m(..)` → fns named `m` whose `impl` self type matches the
//!    caller's; no edge when the type has no such method.
//! 2. `Qual::m(..)` → fns named `m` with self type `Qual` (also matches
//!    `Self::m` against the caller's own type), plus free fns `m` in any
//!    module named `qual`: an in-file `mod qual {}`, or the file module
//!    itself when `m` sits at the top of `qual.rs` or `qual/mod.rs`.
//! 3. `m(..)` → free fns `m` in the caller's own file+module if any
//!    (lexical shadowing wins), otherwise every free fn `m` workspace-wide.
//! 4. `expr.m(..)` → every method `m` workspace-wide, **unless** `m` is in
//!    [`OPAQUE_METHODS`] — a curated list of ubiquitous std names
//!    (`push`, `get`, `insert`, …) that would otherwise wire unrelated
//!    types together. Consequence: workspace methods that collide with
//!    those names are only tracked through `self.`/`Type::` call forms.
//!
//! Test-region fns and fns in non-sim-visible crates are excluded at
//! build time, so reachability never crosses into test or tooling code.

use crate::parser::{call_sites, CallSite, FnItem, Marker, ParsedFile};
use std::collections::{BTreeMap, VecDeque};

/// Method names too generic to resolve: overwhelmingly std-container /
/// iterator / conversion vocabulary. A workspace method with one of these
/// names is reachable only via `self.` or `Type::` call forms.
pub const OPAQUE_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "next_back",
    "ok",
    "ok_or",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "peek",
    "position",
    "pow",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "reserve",
    "retain",
    "rev",
    "rotate_left",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "split_off",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "write",
    "write_str",
    "zip",
];

/// One graph node: a non-test `fn` in a sim-visible file.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Index into the `ParsedFile` slice the graph was built from.
    pub file_idx: usize,
    /// The parsed item.
    pub item: FnItem,
}

impl Node {
    /// `Type::name`-or-`name` display form.
    pub fn label(&self) -> String {
        self.item.qualified()
    }

    /// The name of the module the fn is defined in: its innermost in-file
    /// `mod`, else the file's own module (`qual.rs` and `qual/mod.rs`
    /// both define `qual`).
    fn module_name(&self) -> Option<&str> {
        if let Some(inner) = self.item.module.last() {
            return Some(inner);
        }
        let path = self.file.strip_suffix(".rs")?;
        let mut segments = path.rsplit('/');
        match segments.next()? {
            "mod" => segments.next(),
            stem => Some(stem),
        }
    }
}

/// A directed call edge, labelled with the call site's source line.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Line of the call in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Nodes sorted by (file, line) — deterministic across runs.
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[i]` are the calls out of `nodes[i]`, sorted by
    /// (callee file, callee line).
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph from parsed files (callers resolve against every
    /// file in the slice; the slice should already be restricted to
    /// sim-visible crates).
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for item in &f.fns {
                if item.in_test {
                    continue;
                }
                nodes.push(Node {
                    file: f.rel_path.clone(),
                    file_idx: fi,
                    item: item.clone(),
                });
            }
        }
        nodes.sort_by(|a, b| (a.file.as_str(), a.item.line).cmp(&(b.file.as_str(), b.item.line)));

        // name → node indices, split by free-fn vs method.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.item.self_ty.is_some() {
                methods_by_name.entry(&n.item.name).or_default().push(i);
            } else {
                free_by_name.entry(&n.item.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let Some(body) = n.item.body else {
                continue;
            };
            let toks = &files[n.file_idx].toks;
            for site in call_sites(toks, body) {
                let line = site.line();
                let mut targets: Vec<usize> = Vec::new();
                match &site {
                    CallSite::SelfMethod { name, .. } => {
                        if let Some(cands) = methods_by_name.get(name.as_str()) {
                            for &c in cands {
                                if nodes[c].item.self_ty == n.item.self_ty {
                                    targets.push(c);
                                }
                            }
                        }
                    }
                    CallSite::Path {
                        qualifier, name, ..
                    } => {
                        let last = qualifier.last().map(String::as_str).unwrap_or("");
                        let ty = if last == "Self" {
                            n.item.self_ty.clone().unwrap_or_default()
                        } else {
                            last.to_string()
                        };
                        if let Some(cands) = methods_by_name.get(name.as_str()) {
                            for &c in cands {
                                if nodes[c].item.self_ty.as_deref() == Some(ty.as_str()) {
                                    targets.push(c);
                                }
                            }
                        }
                        if let Some(cands) = free_by_name.get(name.as_str()) {
                            for &c in cands {
                                if nodes[c].module_name() == Some(last) {
                                    targets.push(c);
                                }
                            }
                        }
                    }
                    CallSite::Free { name, .. } => {
                        if let Some(cands) = free_by_name.get(name.as_str()) {
                            let local: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    nodes[c].file_idx == n.file_idx
                                        && nodes[c].item.module == n.item.module
                                })
                                .collect();
                            if local.is_empty() {
                                targets.extend_from_slice(cands);
                            } else {
                                targets.extend_from_slice(&local);
                            }
                        }
                    }
                    CallSite::Method { name, .. } => {
                        if !OPAQUE_METHODS.contains(&name.as_str()) {
                            if let Some(cands) = methods_by_name.get(name.as_str()) {
                                targets.extend_from_slice(cands);
                            }
                        }
                    }
                }
                for t in targets {
                    edges[i].push(Edge { to: t, line });
                }
            }
            edges[i].sort_by_key(|e| (e.to, e.line));
            edges[i].dedup_by_key(|e| e.to);
        }

        CallGraph { nodes, edges }
    }

    /// Node indices whose fn carries `marker`.
    pub fn marked(&self, marker: Marker) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].item.has_marker(marker))
            .collect()
    }

    /// Multi-source BFS from `roots`, never entering `barrier` nodes.
    /// Returns `parent[i] = Some((pred, call line))` for every reached
    /// node; roots are encoded as self-parents `Some((i, 0))` and
    /// unreached nodes stay `None`. Roots are visited in the order given
    /// and neighbours in sorted edge order, so recovered paths are
    /// deterministic shortest paths.
    pub fn reach(
        &self,
        roots: &[usize],
        barrier: impl Fn(usize) -> bool,
    ) -> Vec<Option<(usize, u32)>> {
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some((r, 0));
                q.push_back(r);
            }
        }
        while let Some(u) = q.pop_front() {
            for e in &self.edges[u] {
                if parent[e.to].is_none() && !barrier(e.to) {
                    parent[e.to] = Some((u, e.line));
                    q.push_back(e.to);
                }
            }
        }
        parent
    }

    /// Reconstructs the call path root → … → `node` from a `reach` result.
    /// Each hop renders as `file:line label`; the final element is the
    /// target fn itself.
    pub fn path_to(&self, parent: &[Option<(usize, u32)>], node: usize) -> Vec<String> {
        let mut rev: Vec<String> = Vec::new();
        let mut cur = node;
        loop {
            let n = &self.nodes[cur];
            rev.push(format!("{}:{} {}", n.file, n.item.line, n.label()));
            match parent[cur] {
                Some((p, _)) if p != cur => cur = p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }
}
