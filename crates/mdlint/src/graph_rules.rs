//! The call-graph rules R7–R9 (see DESIGN.md §11).
//!
//! * **R7** `panic-reachability` — no panicking operation (R3's tokens,
//!   `unreachable!`, `[]` indexing/slicing, bare-identifier integer
//!   division) may be transitively reachable from a `// mdlint::entry`
//!   fn. Each finding carries the full call path from the entry point to
//!   the panic site.
//! * **R8** `hot-path-alloc` — no `Box::new` / `format!` / non-empty
//!   `vec!` / `.collect()` / unreserved `.push()` reachable from a
//!   `// mdlint::hot` fn. Traversal stops at `// mdlint::cold` fns
//!   (sanctioned amortized work such as capacity rebuilds).
//! * **R9** `layer-reentrance` — no fn in `crates/core/src/layers/`,
//!   whatever its receiver (a free concern function or an
//!   `impl Middleware` one), may reach the migration lifecycle entry
//!   points; the lifecycle calls the concerns mid-transition, so a
//!   concern re-entering `migrate_now` would recurse into the state
//!   machine.
//!
//! All three rules inherit the call graph's over-approximation (see
//! [`crate::callgraph`]): a finding means "a path exists in the
//! conservative graph", and invariant-guarded sites are silenced with
//! justified `lint-allow.toml` entries, never by weakening the graph.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::parser::{Marker, ParsedFile, NON_POSTFIX_KEYWORDS};
use crate::rules::LAYERS_DIR;
use crate::Finding;

/// The `Middleware` migration lifecycle fns R9 forbids the concern
/// modules to reach.
pub const R9_LIFECYCLE: &[&str] = &[
    "prestage",
    "migrate_now",
    "suspend_and_wrap",
    "arrive",
    "rebind_app",
];

/// Async boundaries R9 does not traverse: `(self type, fn)`. Work on the
/// far side of a message enqueue runs in a *later* event turn, after the
/// migration state machine has settled — a concern nudging the lifecycle
/// through a message is the sanctioned retry mechanism, not re-entrance.
/// R7/R8 deliberately still traverse these (a deferred panic still kills
/// the host; a deferred alloc still burns the hot path's budget).
pub const R9_ASYNC_BOUNDARY: &[(&str, &str)] = &[("Platform", "send"), ("Platform", "broadcast")];

/// Anchor file whose presence arms the "no entry annotations" guard.
const R7_ANCHOR: &str = "crates/core/src/middleware.rs";

/// Anchor file whose presence arms the "no hot annotations" guard.
const R8_ANCHOR: &str = "crates/simnet/src/event.rs";

fn snippet(files: &[ParsedFile], file_idx: usize, line: u32) -> String {
    files[file_idx]
        .lines
        .get((line as usize).saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// A panicking or allocating operation found inside a fn body.
struct Site {
    line: u32,
    what: &'static str,
}

/// True when the token at `i` opens an index/slice expression: a `[`
/// directly after an expression tail (ident, `)`, `]`). Macro brackets
/// (`vec![`), attributes (`#[`) and pattern/type brackets never follow an
/// expression tail.
fn is_index_bracket(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is_punct('[') || i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    match prev.kind {
        TokKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

/// True when the `/` or `%` at `i` looks like a panicking integer
/// division: the divisor is a bare identifier or `self.field` that is not
/// immediately cast to a float, called, or further dereferenced. Literal,
/// parenthesized, call and float-cast divisors are skipped — the goal is
/// the `x / n` shape where `n` is runtime data that could be zero.
fn is_risky_division(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    if !(t.is_punct('/') || t.is_punct('%')) {
        return false;
    }
    // `//`, `/*` never reach the lexer; `/=` shifts the divisor by one.
    let mut j = i + 1;
    if toks.get(j).is_some_and(|n| n.is_punct('=')) {
        // Comparison `<=`-style sequences can't start with `/`, so this
        // really is `/=` or `%=`.
        j += 1;
    }
    // Divisor must start with an identifier (not a literal, `(`, `self`
    // handled below).
    let Some(d) = toks.get(j) else {
        return false;
    };
    if d.kind != TokKind::Ident {
        return false;
    }
    let mut k = j + 1;
    if d.text == "self" {
        // `self.field` — step over exactly one projection.
        if !(toks.get(k).is_some_and(|n| n.is_punct('.'))
            && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident))
        {
            return false;
        }
        k += 2;
    }
    match toks.get(k) {
        // Method call / further projection / fn call / path — skipped
        // (calls usually return lengths the caller just produced; paths
        // are consts).
        Some(n) if n.is_punct('.') || n.is_punct('(') || n.is_punct(':') => false,
        // Float casts don't panic on zero.
        Some(n) if n.is_ident("as") => !matches!(
            toks.get(k + 1),
            Some(f) if f.is_ident("f32") || f.is_ident("f64")
        ),
        _ => true,
    }
}

/// Collects R7 panic sites in `toks[range]`.
fn panic_sites(toks: &[Tok], range: (usize, usize)) -> Vec<Site> {
    let (start, end) = range;
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "unwrap" | "expect"
                    if i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    out.push(Site {
                        line: t.line,
                        what: "unwrap/expect",
                    });
                }
                "panic" | "todo" | "unimplemented" | "unreachable"
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
                {
                    out.push(Site {
                        line: t.line,
                        what: "panicking macro",
                    });
                }
                _ => {}
            },
            TokKind::Punct => {
                if is_index_bracket(toks, i) {
                    out.push(Site {
                        line: t.line,
                        what: "[] indexing",
                    });
                } else if is_risky_division(toks, i) {
                    out.push(Site {
                        line: t.line,
                        what: "integer division",
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Collects R8 allocation sites in `toks[range]`. `.push()` counts only
/// when the body never mentions `reserve`/`reserve_exact`/`with_capacity`
/// (a reserved container's push is a plain write).
fn alloc_sites(toks: &[Tok], range: (usize, usize)) -> Vec<Site> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let reserved = toks[start..end].iter().any(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "reserve" | "reserve_exact" | "with_capacity"
            )
    });
    let mut out = Vec::new();
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Box"
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("new")) =>
            {
                out.push(Site {
                    line: t.line,
                    what: "Box::new",
                });
            }
            "format" if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                out.push(Site {
                    line: t.line,
                    what: "format!",
                });
            }
            "vec" if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                // `vec![]` with no elements does not allocate.
                let empty = toks.get(i + 2).is_some_and(|n| n.is_punct('['))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(']'));
                if !empty {
                    out.push(Site {
                        line: t.line,
                        what: "vec!",
                    });
                }
            }
            "collect"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct(':')) =>
            {
                out.push(Site {
                    line: t.line,
                    what: ".collect()",
                });
            }
            "push"
                if !reserved
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(Site {
                    line: t.line,
                    what: "unreserved .push()",
                });
            }
            _ => {}
        }
    }
    out
}

/// Runs R7–R9 over the parsed sim-visible files and their call graph.
pub fn run_graph_rules(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_r7(files, graph, &mut out);
    rule_r8(files, graph, &mut out);
    rule_r9(files, graph, &mut out);
    out
}

fn guard_finding(rule: &'static str, file: &str, msg: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: 1,
        snippet: msg,
        allowed: false,
        reason: None,
        call_path: Vec::new(),
    }
}

fn rule_r7(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let entries = graph.marked(Marker::Entry);
    if entries.is_empty() {
        if files.iter().any(|f| f.rel_path == R7_ANCHOR) {
            out.push(guard_finding(
                "R7",
                R7_ANCHOR,
                "no `// mdlint::entry` annotations found — R7 has no roots".to_string(),
            ));
        }
        return;
    }
    let parent = graph.reach(&entries, |_| false);
    for (i, node) in graph.nodes.iter().enumerate() {
        if parent[i].is_none() {
            continue;
        }
        let Some(body) = node.item.body else {
            continue;
        };
        let toks = &files[node.file_idx].toks;
        for site in panic_sites(toks, body) {
            let mut call_path = graph.path_to(&parent, i);
            call_path.push(format!("{}:{} {} site", node.file, site.line, site.what));
            out.push(Finding {
                rule: "R7",
                file: node.file.clone(),
                line: site.line,
                snippet: snippet(files, node.file_idx, site.line),
                allowed: false,
                reason: None,
                call_path,
            });
        }
    }
}

fn rule_r8(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let hot = graph.marked(Marker::Hot);
    if hot.is_empty() {
        if files.iter().any(|f| f.rel_path == R8_ANCHOR) {
            out.push(guard_finding(
                "R8",
                R8_ANCHOR,
                "no `// mdlint::hot` annotations found — R8 has no roots".to_string(),
            ));
        }
        return;
    }
    let parent = graph.reach(&hot, |n| graph.nodes[n].item.has_marker(Marker::Cold));
    for (i, node) in graph.nodes.iter().enumerate() {
        if parent[i].is_none() || node.item.has_marker(Marker::Cold) {
            continue;
        }
        let Some(body) = node.item.body else {
            continue;
        };
        let toks = &files[node.file_idx].toks;
        for site in alloc_sites(toks, body) {
            let mut call_path = graph.path_to(&parent, i);
            call_path.push(format!("{}:{} {} site", node.file, site.line, site.what));
            out.push(Finding {
                rule: "R8",
                file: node.file.clone(),
                line: site.line,
                snippet: snippet(files, node.file_idx, site.line),
                allowed: false,
                reason: None,
                call_path,
            });
        }
    }
}

fn rule_r9(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let targets: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            n.item.self_ty.as_deref() == Some("Middleware")
                && R9_LIFECYCLE.contains(&n.item.name.as_str())
        })
        .collect();
    if targets.is_empty() {
        return;
    }
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.file.starts_with(LAYERS_DIR) {
            continue;
        }
        let parent = graph.reach(&[i], |n| {
            let m = &graph.nodes[n].item;
            R9_ASYNC_BOUNDARY
                .iter()
                .any(|(ty, f)| m.self_ty.as_deref() == Some(*ty) && m.name == *f)
        });
        if let Some(&t) = targets.iter().find(|&&t| parent[t].is_some() && t != i) {
            let call_path = graph.path_to(&parent, t);
            if call_path.len() <= 1 {
                continue;
            }
            out.push(Finding {
                rule: "R9",
                file: node.file.clone(),
                line: node.item.line,
                snippet: snippet(files, node.file_idx, node.item.line),
                allowed: false,
                reason: None,
                call_path,
            });
        }
    }
}
