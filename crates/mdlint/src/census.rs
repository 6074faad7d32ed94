//! The census: `pub` items that no non-test code names.
//!
//! rustc's `dead_code` lint cannot see an unused `pub` item of a library
//! crate, since some dependent might name it. The census lists every `pub`
//! fn, struct, enum, trait, const, static and type declared outside test
//! code under `crates/*/src/` (binaries left out) whose name no non-test
//! token of the scanned files carries:
//!
//! * every scanned file can name an item — library sources, binaries,
//!   `examples/`, `benches/` and bench-city are entry points or reach one;
//! * files under a `tests/` directory and `#[cfg(test)]` / `#[test]`
//!   regions are test code and name nothing;
//! * the declaring token names nothing, nor does a `pub use` re-export,
//!   nor a type's name inside its own `impl` blocks (a value of the type
//!   must be built or named outside them before any of that code runs).
//!
//! Matching is by name alone: a dead item that shares its name with a live
//! one is never listed, and a live item never is. The compiler judges each
//! deletion. `LINT_report.json` pins the list (see DESIGN.md §11).

use std::collections::BTreeSet;

use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{impl_header, match_brace};

/// One `pub` item that no non-test code names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Unreferenced {
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// 1-based line of the item's name.
    pub line: u32,
    /// The item's name.
    pub name: String,
}

/// The item keywords whose `pub` declarations are counted.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Words that may sit between `pub` and an item's name besides item
/// keywords (`pub const unsafe fn`, `pub extern "C" fn`, `pub static mut`).
const QUALIFIERS: &[&str] = &["unsafe", "async", "extern", "mut"];

/// Lists the unreferenced `pub` items of `files` (`(rel_path, source)`
/// pairs), sorted by file, line and name.
pub fn unreferenced(files: &[(String, String)]) -> Vec<Unreferenced> {
    let mut declared = Vec::new();
    let mut named = BTreeSet::new();
    for (rel, source) in files {
        if rel.split('/').any(|c| c == "tests") {
            continue;
        }
        let toks = lex(source);
        let mut silent = vec![false; toks.len()];
        mark_reexports(&toks, &mut silent);
        mark_own_impls(&toks, &mut silent);
        if declares(rel) {
            for i in pub_item_names(&toks) {
                silent[i] = true;
                declared.push(Unreferenced {
                    file: rel.clone(),
                    line: toks[i].line,
                    name: toks[i].text.clone(),
                });
            }
        }
        named.extend(
            toks.iter()
                .zip(&silent)
                .filter(|(t, s)| !**s && !t.in_test && t.kind == TokKind::Ident)
                .map(|(t, _)| t.text.clone()),
        );
    }
    declared.retain(|d| !named.contains(&d.name));
    declared.sort();
    declared
}

/// True for library sources of a workspace crate: `crates/*/src/`, minus
/// `src/bin/` and `main.rs`.
fn declares(rel: &str) -> bool {
    let Some((_, tail)) = rel.strip_prefix("crates/").and_then(|r| r.split_once('/')) else {
        return false;
    };
    tail.starts_with("src/") && !tail.starts_with("src/bin/") && !tail.ends_with("/main.rs")
}

/// Indices of the name tokens of non-test `pub` items. `pub(crate)` and
/// its kin stay inside the crate, where rustc already sees them.
fn pub_item_names(toks: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || t.in_test || toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // The name follows the run of keywords and qualifiers.
        let mut j = i + 1;
        let mut item = false;
        while let Some(k) = toks.get(j) {
            if k.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&k.text.as_str()) {
                item = true;
            } else if k.kind != TokKind::Literal && !QUALIFIERS.iter().any(|q| k.is_ident(q)) {
                break;
            }
            j += 1;
        }
        if item && toks.get(j).is_some_and(|n| n.kind == TokKind::Ident) {
            out.push(j);
        }
    }
    out
}

/// Silences `pub use` and `pub(..) use` trees: a re-export names nothing.
fn mark_reexports(toks: &[Tok], silent: &mut [bool]) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.is_punct('(')) {
            while j < toks.len() && !toks[j].is_punct(')') {
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|n| n.is_ident("use")) {
            while j < toks.len() && !toks[j].is_punct(';') {
                silent[j] = true;
                j += 1;
            }
        }
    }
}

/// Silences a type's name inside its own item-level `impl` blocks, header
/// included.
fn mark_own_impls(toks: &[Tok], silent: &mut [bool]) {
    for (i, t) in toks.iter().enumerate() {
        let item_position = i == 0
            || toks[i - 1].is_ident("unsafe")
            || ['}', ';', '{', ']']
                .iter()
                .any(|&c| toks[i - 1].is_punct(c));
        if !t.is_ident("impl") || !item_position {
            continue;
        }
        let (open, Some(ty)) = impl_header(toks, i) else {
            continue;
        };
        let close = match_brace(toks, open);
        for (tok, s) in toks[i..close].iter().zip(&mut silent[i..close]) {
            if tok.text == ty {
                *s = true;
            }
        }
    }
}
