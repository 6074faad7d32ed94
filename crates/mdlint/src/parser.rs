//! A lightweight item parser on top of [`crate::lexer`].
//!
//! The graph-based rules (R7–R9) and the wire-schema lock (R10) need more
//! structure than a token stream: which `fn` items exist, which module and
//! `impl` block they live in, what they call, and what the file imports.
//! This module recovers exactly that — and nothing more — from the lexed
//! tokens. It is *not* a Rust parser: expressions are never built, types
//! are kept as canonical token strings, and anything ambiguous is recorded
//! conservatively (see `DESIGN.md` §11 for the precision contract).
//!
//! Annotation markers are read from raw source comments (the lexer strips
//! them), one per line, binding to the next `fn` item that follows:
//!
//! * `// mdlint::entry` — a sim-visible entry point (R7 reachability root);
//! * `// mdlint::hot` — a hot-path root (R8 allocation discipline);
//! * `// mdlint::cold` — a sanctioned cold fn R8 traversal stops at
//!   (deterministic amortized work such as capacity rebuilds).

use crate::lexer::{lex, Tok, TokKind};

/// Reachability annotation attached to a `fn` item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marker {
    /// `// mdlint::entry` — R7 reachability root.
    Entry,
    /// `// mdlint::hot` — R8 hot-path root.
    Hot,
    /// `// mdlint::cold` — R8 traversal barrier.
    Cold,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing in-file module path (`mod a { mod b { .. } }` → `[a, b]`).
    pub module: Vec<String>,
    /// The `impl`/`trait` self type when the fn is a method (`impl Foo` or
    /// `impl Trait for Foo` both record `Foo`; trait declarations record
    /// the trait name).
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True for fns inside `#[cfg(test)]`/`#[test]` regions.
    pub in_test: bool,
    /// Token range of the body including both braces; `None` for
    /// body-less declarations (trait methods, extern).
    pub body: Option<(usize, usize)>,
    /// Markers bound to this fn.
    pub markers: Vec<Marker>,
}

impl FnItem {
    /// True when the fn carries the given marker.
    pub fn has_marker(&self, m: Marker) -> bool {
        self.markers.contains(&m)
    }

    /// `Type::name` for methods, plain `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `use` import: `use a::b::c;` binds local `c`; `use a::b as x;`
/// binds local `x`; `use a::b::*` binds local `*`.
#[derive(Debug, Clone)]
pub struct UseImport {
    /// The name the import binds in this file.
    pub local: String,
    /// Full path segments, e.g. `["crate", "layers", "telemetry"]`.
    pub path: Vec<String>,
}

/// One `struct` declaration with named fields (tuple and unit structs are
/// skipped — no wire type uses them).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Ordered `(field, canonical type string)` pairs.
    pub fields: Vec<(String, String)>,
    /// True inside test regions.
    pub in_test: bool,
}

/// A parsed file: tokens plus the item structure recovered from them.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Raw source lines (for finding snippets).
    pub lines: Vec<String>,
    /// The token stream (kept: rules scan fn bodies by token range).
    pub toks: Vec<Tok>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// All `use` bindings.
    pub uses: Vec<UseImport>,
    /// All named-field `struct` declarations.
    pub structs: Vec<StructItem>,
}

/// A call site extracted from a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallSite {
    /// `foo(..)` — an unqualified call.
    Free { name: String, line: u32 },
    /// `a::b::foo(..)` — a path-qualified call; `qualifier` holds the
    /// segments before the final name.
    Path {
        qualifier: Vec<String>,
        name: String,
        line: u32,
    },
    /// `self.foo(..)` — a method call on `self`.
    SelfMethod { name: String, line: u32 },
    /// `expr.foo(..)` — a method call on anything else.
    Method { name: String, line: u32 },
}

impl CallSite {
    /// The called name regardless of form.
    pub fn name(&self) -> &str {
        match self {
            CallSite::Free { name, .. }
            | CallSite::Path { name, .. }
            | CallSite::SelfMethod { name, .. }
            | CallSite::Method { name, .. } => name,
        }
    }

    /// The call's source line.
    pub fn line(&self) -> u32 {
        match self {
            CallSite::Free { line, .. }
            | CallSite::Path { line, .. }
            | CallSite::SelfMethod { line, .. }
            | CallSite::Method { line, .. } => *line,
        }
    }
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "box", "else", "let",
    "mut", "ref", "fn", "use", "pub", "impl", "where", "unsafe", "break", "continue", "await",
    "dyn", "crate", "super",
];

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = ..`, `for x in [..]`).
pub const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "else", "match", "mut", "ref", "move", "as", "if", "while", "loop",
    "for", "where", "impl", "dyn", "fn", "use", "pub", "const", "static", "type", "break",
    "continue", "unsafe", "box", "await", "yield", "do", "struct", "enum", "trait", "mod",
];

fn parse_markers(source: &str) -> Vec<(u32, Marker)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("//") else {
            continue;
        };
        let marker = match rest.trim() {
            "mdlint::entry" => Marker::Entry,
            "mdlint::hot" => Marker::Hot,
            "mdlint::cold" => Marker::Cold,
            _ => continue,
        };
        out.push((idx as u32 + 1, marker));
    }
    out
}

/// What the next `{` token opens, decided when its introducing keyword is
/// parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    Module(String),
    Impl(String),
    Trait(String),
    Other,
}

/// Finds the index of the `{` that opens the body introduced at `from`
/// (skipping to the first `{` at zero paren/bracket depth), or the index of
/// a terminating `;`, whichever comes first. Returns `(index, is_brace)`.
fn find_body_open(toks: &[Tok], from: usize) -> Option<(usize, bool)> {
    let mut depth = 0isize;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some((j, true)),
                ";" if depth == 0 => return Some((j, false)),
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Index just past the `}` matching the `{` at `open`.
pub(crate) fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// The "head" type name of a type token slice: the last ident at angle
/// depth 0 (`a::b::Foo<T>` → `Foo`, `&mut Vec<T>` → `Vec`).
fn type_head(toks: &[Tok]) -> Option<String> {
    let mut angle = 0isize;
    let mut head = None;
    for t in toks {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            },
            TokKind::Ident
                if angle == 0 && t.text != "mut" && t.text != "dyn" && t.text != "impl" =>
            {
                head = Some(t.text.clone());
            }
            _ => {}
        }
    }
    head
}

/// Canonical string for a type token slice: idents separated by a space
/// only where two word-like tokens touch, puncts joined tight. Stable
/// across formatting changes, so the wire lock survives rustfmt.
pub fn type_string(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for t in toks {
        let word = matches!(
            t.kind,
            TokKind::Ident | TokKind::Literal | TokKind::Lifetime
        );
        if word && prev_word {
            out.push(' ');
        }
        if t.kind == TokKind::Lifetime {
            out.push('\'');
        }
        out.push_str(&t.text);
        prev_word = word;
    }
    out
}

/// Parses the `impl` header whose keyword is `toks[i]`. Returns the index
/// the header stops at (its body's `{`, or a `;`) and, when a body
/// follows, the self type's head name (`impl Tr for a::Foo<T>` → `Foo`).
pub(crate) fn impl_header(toks: &[Tok], i: usize) -> (usize, Option<String>) {
    // Skip generics on the impl itself.
    let mut j = i + 1;
    if toks.get(j).is_some_and(|n| n.is_punct('<')) {
        let mut angle = 1isize;
        j += 1;
        while j < toks.len() && angle > 0 {
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
                angle -= 1;
            }
            j += 1;
        }
    }
    // Collect tokens to `{`, watching for `for` (trait impls) and stopping
    // type collection at `where`.
    let mut ty_from = j;
    let mut ty_to = None;
    let mut k = j;
    let mut depth = 0isize;
    while k < toks.len() {
        let tt = &toks[k];
        if tt.kind == TokKind::Punct {
            match tt.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => {
                    if tt.text == ">" && k > 0 && toks[k - 1].is_punct('-') {
                        k += 1;
                        continue;
                    }
                    depth -= 1;
                }
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                _ => {}
            }
        } else if tt.kind == TokKind::Ident && depth == 0 {
            if tt.text == "for" {
                ty_from = k + 1;
                ty_to = None;
            } else if tt.text == "where" && ty_to.is_none() {
                ty_to = Some(k);
            }
        }
        k += 1;
    }
    let ty = (k < toks.len() && toks[k].is_punct('{'))
        .then(|| type_head(&toks[ty_from..ty_to.unwrap_or(k)]).unwrap_or_else(|| "?".to_string()));
    (k, ty)
}

/// Parses `use` tree starting after the `use` keyword at `i` (exclusive),
/// appending bindings to `out`; returns the index just past the `;`.
fn parse_use_tree(
    toks: &[Tok],
    mut i: usize,
    prefix: &[String],
    out: &mut Vec<UseImport>,
) -> usize {
    let mut path = prefix.to_vec();
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                // `use a::b as x;`
                if let Some(alias) = toks.get(i + 1) {
                    if alias.kind == TokKind::Ident {
                        out.push(UseImport {
                            local: alias.text.clone(),
                            path: path.clone(),
                        });
                    }
                }
                i += 2;
                // Skip to `,` `}` or `;`.
                while i < toks.len()
                    && !(toks[i].is_punct(',') || toks[i].is_punct('}') || toks[i].is_punct(';'))
                {
                    i += 1;
                }
                return i;
            }
            TokKind::Ident => {
                path.push(t.text.clone());
                i += 1;
            }
            TokKind::Punct => match t.text.as_str() {
                ":" => i += 1,
                "*" => {
                    out.push(UseImport {
                        local: "*".to_string(),
                        path: path.clone(),
                    });
                    i += 1;
                }
                "{" => {
                    i += 1;
                    loop {
                        if i >= toks.len() || toks[i].is_punct('}') {
                            i += 1;
                            break;
                        }
                        i = parse_use_tree(toks, i, &path, out);
                        if i < toks.len() && toks[i].is_punct(',') {
                            i += 1;
                        }
                    }
                    return i;
                }
                "," | "}" | ";" => {
                    if let Some(last) = path.last() {
                        if path.len() > prefix.len() {
                            out.push(UseImport {
                                local: last.clone(),
                                path: path.clone(),
                            });
                        }
                    }
                    return i;
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
    i
}

/// Parses named struct fields between the braces at `open`; returns the
/// ordered `(name, type)` list.
fn parse_struct_fields(toks: &[Tok], open: usize, close: usize) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < close.saturating_sub(1) {
        let t = &toks[i];
        // Skip attributes and visibility.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let mut depth = 1usize;
            i += 2;
            while i < close && depth > 0 {
                if toks[i].is_punct('[') {
                    depth += 1;
                } else if toks[i].is_punct(']') {
                    depth -= 1;
                }
                i += 1;
            }
            continue;
        }
        if t.is_ident("pub") {
            i += 1;
            if toks.get(i).is_some_and(|n| n.is_punct('(')) {
                let mut depth = 1usize;
                i += 1;
                while i < close && depth > 0 {
                    if toks[i].is_punct('(') {
                        depth += 1;
                    } else if toks[i].is_punct(')') {
                        depth -= 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
            // Careful: `::` would be a path, not a field separator.
            if toks.get(i + 2).is_some_and(|n| n.is_punct(':')) {
                i += 1;
                continue;
            }
            let name = t.text.clone();
            let ty_start = i + 2;
            let mut depth = 0isize;
            let mut j = ty_start;
            while j < close - 1 {
                let tt = &toks[j];
                if tt.kind == TokKind::Punct {
                    match tt.text.as_str() {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => {
                            // `->` arrows inside fn-pointer types.
                            if tt.text == ">" && j > 0 && toks[j - 1].is_punct('-') {
                                j += 1;
                                continue;
                            }
                            depth -= 1;
                        }
                        "," if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            fields.push((name, type_string(&toks[ty_start..j])));
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fields
}

/// Parses a file into its item structure.
pub fn parse_file(rel_path: &str, source: &str) -> ParsedFile {
    let toks = lex(source);
    let markers = parse_markers(source);
    let mut next_marker = 0usize;

    let mut fns = Vec::new();
    let mut uses = Vec::new();
    let mut structs = Vec::new();

    // `{` token index → scope it opens (set when its keyword is parsed).
    let mut pending: Vec<(usize, ScopeKind)> = Vec::new();
    let mut stack: Vec<ScopeKind> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            let kind = match pending.iter().position(|(idx, _)| *idx == i) {
                Some(p) => pending.remove(p).1,
                None => ScopeKind::Other,
            };
            stack.push(kind);
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            stack.pop();
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if let Some((open, true)) = find_body_open(&toks, i + 2) {
                        pending.push((open, ScopeKind::Module(name.text.clone())));
                    }
                }
                i += 2;
            }
            "impl" => {
                let (k, ty) = impl_header(&toks, i);
                if let Some(ty) = ty {
                    pending.push((k, ScopeKind::Impl(ty)));
                }
                i = k;
            }
            "trait" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if let Some((open, true)) = find_body_open(&toks, i + 2) {
                        pending.push((open, ScopeKind::Trait(name.text.clone())));
                    }
                }
                i += 2;
            }
            "use" => {
                let start = i + 1;
                i = parse_use_tree(&toks, start, &[], &mut uses);
                // Land on the `;` (or wherever the tree ended).
                while i < toks.len() && !toks[i].is_punct(';') {
                    i += 1;
                }
                i += 1;
            }
            "struct" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if let Some((open, true)) = find_body_open(&toks, i + 2) {
                        let close = match_brace(&toks, open);
                        // Only a struct *body* (named fields); `(` tuple
                        // and `;` unit forms never reach here.
                        structs.push(StructItem {
                            name: name.text.clone(),
                            line: t.line,
                            fields: parse_struct_fields(&toks, open, close),
                            in_test: t.in_test,
                        });
                    }
                }
                i += 2;
            }
            "fn" => {
                let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                let mut item = FnItem {
                    name: name.text.clone(),
                    module: stack
                        .iter()
                        .filter_map(|s| match s {
                            ScopeKind::Module(m) => Some(m.clone()),
                            _ => None,
                        })
                        .collect(),
                    self_ty: stack.iter().rev().find_map(|s| match s {
                        ScopeKind::Impl(ty) | ScopeKind::Trait(ty) => Some(ty.clone()),
                        _ => None,
                    }),
                    line: t.line,
                    in_test: t.in_test,
                    body: None,
                    markers: Vec::new(),
                };
                while next_marker < markers.len() && markers[next_marker].0 < t.line {
                    item.markers.push(markers[next_marker].1);
                    next_marker += 1;
                }
                match find_body_open(&toks, i + 2) {
                    Some((open, true)) => {
                        let close = match_brace(&toks, open);
                        item.body = Some((open, close));
                        fns.push(item);
                        // Continue scanning *inside* the body (nested fns,
                        // nothing else to recover) — the scope stack treats
                        // the body brace as Other.
                        i = open;
                    }
                    Some((semi, false)) => {
                        fns.push(item);
                        i = semi + 1;
                    }
                    None => {
                        fns.push(item);
                        i += 2;
                    }
                }
            }
            _ => i += 1,
        }
    }

    ParsedFile {
        rel_path: rel_path.to_string(),
        lines: source.lines().map(|l| l.to_string()).collect(),
        toks,
        fns,
        uses,
        structs,
    }
}

/// The index of the `(` that opens a call of the ident at `toks[i]`: the
/// next token, or the one after a turbofish `::<..>`. The generic list is
/// skipped by `<`/`>` depth; a nested `>>` arrives as two `>` tokens, and
/// the `>` of a `->` closes nothing.
fn call_paren(toks: &[Tok], i: usize) -> Option<usize> {
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    if punct(i + 1, '(') {
        return Some(i + 1);
    }
    if !(punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<')) {
        return None;
    }
    let mut depth = 0usize;
    for k in i + 3..toks.len() {
        if punct(k, '<') {
            depth += 1;
        } else if punct(k, '>') && !punct(k - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return punct(k + 1, '(').then_some(k + 1);
            }
        }
    }
    None
}

/// Extracts the call sites in `file.toks[range]` (a fn body).
pub fn call_sites(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = range;
    let toks = &toks[..end.min(toks.len())];
    let mut out = Vec::new();
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        let paren = match t.kind {
            TokKind::Ident if !NON_CALL_KEYWORDS.contains(&t.text.as_str()) => call_paren(toks, i),
            _ => None,
        };
        if let Some(paren) = paren {
            let name = t.text.clone();
            let line = t.line;
            // `.name(` → method call.
            if i > 0 && toks[i - 1].is_punct('.') {
                if i >= 2 && toks[i - 2].is_ident("self") && !(i >= 3 && toks[i - 3].is_punct('.'))
                {
                    out.push(CallSite::SelfMethod { name, line });
                } else {
                    out.push(CallSite::Method { name, line });
                }
                i = paren + 1;
                continue;
            }
            // Walk back over `qual :: qual ::` segments.
            let mut qualifier = Vec::new();
            let mut j = i;
            while j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].kind == TokKind::Ident
            {
                qualifier.push(toks[j - 3].text.clone());
                j -= 3;
            }
            qualifier.reverse();
            if qualifier.is_empty() {
                out.push(CallSite::Free { name, line });
            } else {
                out.push(CallSite::Path {
                    qualifier,
                    name,
                    line,
                });
            }
            i = paren + 1;
            continue;
        }
        i += 1;
    }
    out
}
