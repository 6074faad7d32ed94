//! R10 `wire-compat` — the wire-format schema lock (see DESIGN.md §11).
//!
//! The follow-me protocol only interoperates across hosts (and across
//! captured fig8/9/10 artifacts) if the byte layout of every wire type is
//! stable. This module extracts that layout from source:
//!
//! * `impl_wire_struct!(Name { a, b } skip { .. })` invocations — field
//!   order is encode order; types come from the `struct` declaration in
//!   the same file;
//! * `impl_wire_enum!(Name { V = 0, .. })` invocations — variant/tag
//!   pairs;
//! * hand-written `impl Wire for Name` blocks — ordered distinct
//!   `self.field` reads in the `encode` body, a field guarded by
//!   `if let Some` marking the *trailing optional* position (the `Cargo`
//!   pattern from PR 7). Manual impls with no `self.field` reads
//!   (primitives, payload enums like `BindingTarget` — those are R5's
//!   job) are not locked.
//!
//! The extracted schema is committed as `WIRE_schema.json`. On every run
//! the lock is compared against the source: a change that is **not** a
//! trailing-optional append on a manual impl / a fresh-tag variant
//! addition / a brand-new type is an R10 finding at the offending type;
//! a *legal* evolution still fails until the lock is regenerated with
//! `cargo run -p mdlint -- --write-wire-schema`, so the diff is always
//! reviewed.

use mdagent_json::Value;

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;
use crate::Finding;

/// Name of the committed lock file at the workspace root.
pub const LOCK_FILE: &str = "WIRE_schema.json";

/// Schema identifier written into the lock.
pub const LOCK_SCHEMA: &str = "mdagent-wire-schema-v1";

/// One wire-carried struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireField {
    /// Field name.
    pub name: String,
    /// Canonical type string (`"?"` when the struct declaration was not
    /// found in the same file).
    pub ty: String,
    /// True when the encode step is guarded by `if let Some` — the
    /// trailing-optional evolution point.
    pub trailing_optional: bool,
}

/// The wire-relevant shape of one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireShape {
    /// A struct: ordered encode fields.
    Struct {
        /// Fields in encode order.
        fields: Vec<WireField>,
        /// True for hand-written impls (only those may evolve by
        /// trailing-optional append).
        manual: bool,
    },
    /// A field-less enum: `(variant, tag)` pairs in declaration order.
    Enum {
        /// Variant names with their explicit discriminants.
        variants: Vec<(String, String)>,
    },
}

/// One extracted wire type with its source location (location is not part
/// of the lock — moving a type between files is not a wire change).
#[derive(Debug, Clone)]
pub struct WireType {
    /// Type name (unique across the workspace for wire types).
    pub name: String,
    /// Workspace-relative file of the impl.
    pub file: String,
    /// Line of the impl/invocation.
    pub line: u32,
    /// The shape.
    pub shape: WireShape,
}

fn struct_field_types(file: &ParsedFile, struct_name: &str) -> Vec<(String, String)> {
    file.structs
        .iter()
        .find(|s| s.name == struct_name && !s.in_test)
        .map(|s| s.fields.clone())
        .unwrap_or_default()
}

fn lookup_ty(decl: &[(String, String)], field: &str) -> String {
    decl.iter()
        .find(|(n, _)| n == field)
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| "?".to_string())
}

/// Scans past a `!` `(` after the macro name at `i`; returns the index of
/// the type-name ident or `None` if the shape is off.
fn macro_type_name(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i + 1)?.is_punct('!') && toks.get(i + 2)?.is_punct('(') {
        let n = toks.get(i + 3)?;
        if n.kind == TokKind::Ident {
            return Some(i + 3);
        }
    }
    None
}

fn extract_struct_macro(file: &ParsedFile, i: usize, out: &mut Vec<WireType>) {
    let toks = &file.toks;
    let Some(name_idx) = macro_type_name(toks, i) else {
        return;
    };
    let name = toks[name_idx].text.clone();
    // `{ field, field, ... }` — stop at the closing brace; a following
    // `skip { .. }` group is ignored (skipped fields are not on the wire).
    if !toks.get(name_idx + 1).is_some_and(|t| t.is_punct('{')) {
        return;
    }
    let decl = struct_field_types(file, &name);
    let mut fields = Vec::new();
    let mut j = name_idx + 2;
    while j < toks.len() && !toks[j].is_punct('}') {
        if toks[j].kind == TokKind::Ident {
            fields.push(WireField {
                name: toks[j].text.clone(),
                ty: lookup_ty(&decl, &toks[j].text),
                trailing_optional: false,
            });
        }
        j += 1;
    }
    out.push(WireType {
        name,
        file: file.rel_path.clone(),
        line: toks[i].line,
        shape: WireShape::Struct {
            fields,
            manual: false,
        },
    });
}

fn extract_enum_macro(file: &ParsedFile, i: usize, out: &mut Vec<WireType>) {
    let toks = &file.toks;
    let Some(name_idx) = macro_type_name(toks, i) else {
        return;
    };
    let name = toks[name_idx].text.clone();
    if !toks.get(name_idx + 1).is_some_and(|t| t.is_punct('{')) {
        return;
    }
    let mut variants = Vec::new();
    let mut j = name_idx + 2;
    while j < toks.len() && !toks[j].is_punct('}') {
        if toks[j].kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Literal)
        {
            variants.push((toks[j].text.clone(), toks[j + 2].text.clone()));
            j += 3;
            continue;
        }
        j += 1;
    }
    out.push(WireType {
        name,
        file: file.rel_path.clone(),
        line: toks[i].line,
        shape: WireShape::Enum { variants },
    });
}

/// Extracts ordered `self.field` reads from the `fn encode` body of the
/// manual impl whose `impl` keyword sits at `i`. Returns `None` when the
/// impl has no named-field encode steps.
fn extract_manual_impl(file: &ParsedFile, i: usize, out: &mut Vec<WireType>) {
    let toks = &file.toks;
    // `impl [generics] [path ::] Wire for Name {` — `Wire` and `for` were
    // matched by the caller; `name_idx` points at the type name.
    let Some(name_idx) = manual_impl_name(toks, i) else {
        return;
    };
    let name = toks[name_idx].text.clone();
    // Find `fn encode` inside the impl body.
    let Some(body_open) = (name_idx..toks.len()).find(|&k| toks[k].is_punct('{')) else {
        return;
    };
    let mut depth = 1usize;
    let mut k = body_open + 1;
    let mut enc: Option<(usize, usize)> = None;
    while k < toks.len() && depth > 0 {
        if toks[k].is_punct('{') {
            depth += 1;
        } else if toks[k].is_punct('}') {
            depth -= 1;
        } else if depth == 1
            && toks[k].is_ident("fn")
            && toks.get(k + 1).is_some_and(|t| t.is_ident("encode"))
        {
            let Some(open) = (k + 2..toks.len()).find(|&m| toks[m].is_punct('{')) else {
                return;
            };
            let mut d = 1usize;
            let mut m = open + 1;
            while m < toks.len() && d > 0 {
                if toks[m].is_punct('{') {
                    d += 1;
                } else if toks[m].is_punct('}') {
                    d -= 1;
                }
                m += 1;
            }
            enc = Some((open, m));
            break;
        }
        k += 1;
    }
    let Some((enc_open, enc_close)) = enc else {
        return;
    };
    let decl = struct_field_types(file, &name);
    let mut fields: Vec<WireField> = Vec::new();
    for j in enc_open..enc_close.min(toks.len()) {
        if toks[j].is_ident("self")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let fname = toks[j + 2].text.clone();
            if fields.iter().any(|f| f.name == fname) {
                continue;
            }
            // Trailing-optional: `if let Some ( x ) = & self . field`.
            let lo = j.saturating_sub(8);
            let guarded = toks[lo..j]
                .windows(3)
                .any(|w| w[0].is_ident("if") && w[1].is_ident("let") && w[2].is_ident("Some"));
            fields.push(WireField {
                name: fname,
                ty: lookup_ty(&decl, &toks[j + 2].text),
                trailing_optional: guarded,
            });
        }
    }
    if fields.is_empty() {
        return;
    }
    out.push(WireType {
        name,
        file: file.rel_path.clone(),
        line: toks[i].line,
        shape: WireShape::Struct {
            fields,
            manual: true,
        },
    });
}

/// For an `impl` keyword at `i`, returns the index of `Name` when the
/// header reads `impl [<..>] [path::]Wire for Name` with `Name` a plain
/// ident (generic self types are std plumbing, never locked).
fn manual_impl_name(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    // Skip impl generics.
    if toks.get(j)?.is_punct('<') {
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
    // Optional path prefix before `Wire`.
    loop {
        let t = toks.get(j)?;
        if t.is_ident("Wire") {
            break;
        }
        if t.kind == TokKind::Ident || t.is_punct(':') {
            j += 1;
            continue;
        }
        return None;
    }
    // `Wire for Name`
    if !toks.get(j + 1)?.is_ident("for") {
        return None;
    }
    let name = toks.get(j + 2)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // Reject generic self types (`Vec<T>`) and paths (`std::..`): the
    // next token must open the impl body or a `where` clause.
    match toks.get(j + 3) {
        Some(t) if t.is_punct('{') || t.is_ident("where") => Some(j + 2),
        _ => None,
    }
}

/// Extracts every wire type from the parsed files. Test-region
/// invocations and files under `tests/`/`benches/` are skipped. The
/// result is sorted by type name; duplicate names keep the first
/// occurrence (and real duplicates would already be a compile error).
pub fn extract(files: &[ParsedFile]) -> Vec<WireType> {
    let mut out = Vec::new();
    for file in files {
        let path_is_test = file
            .rel_path
            .split('/')
            .any(|c| c == "tests" || c == "benches");
        if path_is_test {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.in_test || t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "impl_wire_struct" => extract_struct_macro(file, i, &mut out),
                "impl_wire_enum" => extract_enum_macro(file, i, &mut out),
                "impl" if manual_impl_name(toks, i).is_some() => {
                    extract_manual_impl(file, i, &mut out);
                }
                _ => {}
            }
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out.dedup_by(|a, b| a.name == b.name);
    out
}

/// Renders the canonical lock JSON (sorted by type name, 2-space indent,
/// trailing newline) — byte-stable across runs.
pub fn render(types: &[WireType]) -> String {
    let types = types.iter().map(|t| {
        let mut pairs = vec![("name", Value::from(t.name.as_str()))];
        match &t.shape {
            WireShape::Struct { fields, manual } => {
                let fields = fields.iter().map(|f| {
                    let mut field = vec![
                        ("name", Value::from(f.name.as_str())),
                        ("type", f.ty.as_str().into()),
                    ];
                    if f.trailing_optional {
                        field.push(("trailing_optional", true.into()));
                    }
                    Value::object(field)
                });
                pairs.extend([
                    ("kind", "struct".into()),
                    ("impl", if *manual { "manual" } else { "macro" }.into()),
                    ("fields", Value::array(fields)),
                ]);
            }
            WireShape::Enum { variants } => {
                let variants = variants.iter().map(|(name, tag)| {
                    Value::object([
                        ("name", name.as_str().into()),
                        ("tag", Value::Num(tag.clone())),
                    ])
                });
                pairs.extend([
                    ("kind", "enum".into()),
                    ("impl", "macro".into()),
                    ("variants", Value::array(variants)),
                ]);
            }
        }
        Value::object(pairs)
    });
    Value::object([
        ("schema", LOCK_SCHEMA.into()),
        ("types", Value::array(types)),
    ])
    .pretty()
}

/// Parses a committed lock back into shapes (file/line unset). Returns
/// `Err` with a message on malformed JSON.
pub fn parse_lock(text: &str) -> Result<Vec<WireType>, String> {
    let doc = mdagent_json::parse(text).map_err(|e| e.to_string())?;
    let str_at = |v: &Value, key: &str| v[key].as_str().map(str::to_owned);
    let types = doc["types"].as_arr().ok_or("lock has no `types` array")?;
    let mut out = Vec::new();
    for t in types {
        let name = str_at(t, "name").ok_or("type entry missing `name`")?;
        let kind = str_at(t, "kind").ok_or("type entry missing `kind`")?;
        let shape = match kind.as_str() {
            "struct" => {
                let fields = t["fields"]
                    .as_arr()
                    .ok_or("struct entry missing `fields`")?;
                let mut fs = Vec::new();
                for f in fields {
                    fs.push(WireField {
                        name: str_at(f, "name").ok_or("field missing `name`")?,
                        ty: str_at(f, "type").ok_or("field missing `type`")?,
                        trailing_optional: f["trailing_optional"].as_bool() == Some(true),
                    });
                }
                WireShape::Struct {
                    fields: fs,
                    manual: str_at(t, "impl").as_deref() == Some("manual"),
                }
            }
            "enum" => {
                let variants = t["variants"]
                    .as_arr()
                    .ok_or("enum entry missing `variants`")?;
                let mut vs = Vec::new();
                for v in variants {
                    vs.push((
                        str_at(v, "name").ok_or("variant missing `name`")?,
                        v["tag"].as_num().ok_or("variant missing `tag`")?.to_owned(),
                    ));
                }
                WireShape::Enum { variants: vs }
            }
            other => return Err(format!("unknown type kind `{other}`")),
        };
        out.push(WireType {
            name,
            file: String::new(),
            line: 0,
            shape,
        });
    }
    Ok(out)
}

fn break_finding(t: &WireType, msg: String) -> Finding {
    Finding {
        rule: "R10",
        file: t.file.clone(),
        line: t.line,
        snippet: msg,
        allowed: false,
        reason: None,
        call_path: Vec::new(),
    }
}

fn stale_finding(msg: String) -> Finding {
    Finding {
        rule: "R10",
        file: LOCK_FILE.to_string(),
        line: 1,
        snippet: format!(
            "{msg} — review, then regenerate with `cargo run -p mdlint -- --write-wire-schema`"
        ),
        allowed: false,
        reason: None,
        call_path: Vec::new(),
    }
}

/// Checks `current` (extracted from source) against the committed lock.
/// Illegal evolutions report at the offending type; legal evolutions
/// report a single stale-lock finding until the lock is regenerated.
pub fn check(lock_text: Option<&str>, current: &[WireType]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(text) = lock_text else {
        out.push(stale_finding(format!("`{LOCK_FILE}` is missing")));
        return out;
    };
    let locked = match parse_lock(text) {
        Ok(l) => l,
        Err(e) => {
            out.push(stale_finding(format!("`{LOCK_FILE}` is malformed: {e}")));
            return out;
        }
    };
    let mut legal_changes: Vec<String> = Vec::new();
    for old in &locked {
        let Some(new) = current.iter().find(|t| t.name == old.name) else {
            out.push(stale_finding(format!(
                "wire type `{}` disappeared from source",
                old.name
            )));
            continue;
        };
        match (&old.shape, &new.shape) {
            (
                WireShape::Struct {
                    fields: of,
                    manual: om,
                },
                WireShape::Struct {
                    fields: nf,
                    manual: nm,
                },
            ) => {
                if nf.len() < of.len() {
                    out.push(break_finding(
                        new,
                        format!(
                            "wire break: `{}` lost field `{}` present in {LOCK_FILE}",
                            new.name,
                            of[nf.len()].name
                        ),
                    ));
                    continue;
                }
                let mut broke = false;
                for (k, (o, n)) in of.iter().zip(nf.iter()).enumerate() {
                    if o != n {
                        out.push(break_finding(
                            new,
                            format!(
                                "wire break: `{}` field {k} changed from `{}: {}` to `{}: {}` \
                                 (locked order/width must not change)",
                                new.name, o.name, o.ty, n.name, n.ty
                            ),
                        ));
                        broke = true;
                        break;
                    }
                }
                if broke {
                    continue;
                }
                for extra in &nf[of.len()..] {
                    if !(*nm && extra.trailing_optional) {
                        out.push(break_finding(
                            new,
                            format!(
                                "wire break: `{}` appended non-trailing-optional field `{}` \
                                 (only `if let Some`-guarded appends on manual impls are \
                                 compatible)",
                                new.name, extra.name
                            ),
                        ));
                        broke = true;
                        break;
                    }
                    legal_changes.push(format!(
                        "`{}` gained trailing-optional `{}`",
                        new.name, extra.name
                    ));
                }
                if !broke && om != nm && nf.len() == of.len() {
                    legal_changes.push(format!("`{}` changed impl style", new.name));
                }
            }
            (WireShape::Enum { variants: ov }, WireShape::Enum { variants: nv }) => {
                let mut broke = false;
                for (o_name, o_tag) in ov {
                    match nv.iter().find(|(n, _)| n == o_name) {
                        None => {
                            out.push(break_finding(
                                new,
                                format!(
                                    "wire break: `{}` lost variant `{o_name}` present in \
                                     {LOCK_FILE}",
                                    new.name
                                ),
                            ));
                            broke = true;
                        }
                        Some((_, n_tag)) if n_tag != o_tag => {
                            out.push(break_finding(
                                new,
                                format!(
                                    "wire break: `{}::{o_name}` tag changed {o_tag} -> {n_tag}",
                                    new.name
                                ),
                            ));
                            broke = true;
                        }
                        _ => {}
                    }
                }
                if broke {
                    continue;
                }
                for (n_name, n_tag) in nv {
                    if !ov.iter().any(|(o, _)| o == n_name) {
                        if ov.iter().any(|(_, t)| t == n_tag) {
                            out.push(break_finding(
                                new,
                                format!("wire break: `{}::{n_name}` reuses tag {n_tag}", new.name),
                            ));
                        } else {
                            legal_changes.push(format!(
                                "`{}` gained variant `{n_name}` = {n_tag}",
                                new.name
                            ));
                        }
                    }
                }
            }
            _ => {
                out.push(break_finding(
                    new,
                    format!("wire break: `{}` changed struct/enum kind", new.name),
                ));
            }
        }
    }
    for new in current {
        if !locked.iter().any(|t| t.name == new.name) {
            legal_changes.push(format!("new wire type `{}`", new.name));
        }
    }
    if out.iter().all(|f| f.file == LOCK_FILE) && !legal_changes.is_empty() {
        out.push(stale_finding(format!(
            "{LOCK_FILE} is stale: {}",
            legal_changes.join("; ")
        )));
    }
    out
}
