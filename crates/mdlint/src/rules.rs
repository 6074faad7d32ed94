//! The six mdlint rules (see DESIGN.md §11 for the catalog).
//!
//! * **R1** `wallclock-entropy-env` — no `Instant::now` / `SystemTime::now` /
//!   `thread_rng` / `rand::random` / `std::env` outside the bench crate and
//!   test code. Sim behaviour must be a pure function of the seed.
//! * **R2** `default-hasher` — no default-hasher `HashMap` / `HashSet` in
//!   sim-visible crates; use `FxHashMap` / `FxHashSet` / `BTreeMap` so
//!   iteration order is identical across runs and builds.
//! * **R3** `panic-free` — no `.unwrap()` / `.expect()` / `panic!` /
//!   `todo!` / `unimplemented!` outside test and bench code, workspace-wide.
//! * **R4** `raw-open-span` — confinement of collector internals: each
//!   ident in [`R4_CONFINED`] may only appear inside its designated
//!   module. `open_span` and the tail-sampler bookkeeping belong to the
//!   telemetry module (callers go through the `SpanGuard` RAII front or
//!   `record_span`); the SLO window internals belong to the slo module
//!   (callers go through `Slo::record`).
//! * **R5** `wire-enum-sync` — every variant of each tracked enum must be
//!   mentioned in each of its tracked companion functions (hand-written
//!   encode/decode and kind/Display matches the compiler cannot check).
//! * **R6** `concern-confinement` — migration lifecycle concerns stay in
//!   their modules: each ident in [`R6_CONFINED`] (telemetry span
//!   plumbing, watchdog/rollback machinery, content-store resolution, SLO
//!   feeds) may only appear in files under [`LAYERS_DIR`]. The migration
//!   driver calls each concern's own functions and the reviewed unconfined
//!   seams, never these internals; see DESIGN.md §15.

use crate::lexer::{lex, Tok, TokKind};
use crate::Finding;

/// Crates whose state is visible to the deterministic simulation. R2
/// applies only to these.
pub const SIM_VISIBLE_CRATES: &[&str] = &[
    "core", "agent", "context", "ontology", "registry", "simnet", "wire", "apps",
];

/// Crates exempt from R1/R3 wholesale (measurement harnesses may use wall
/// clocks and assert freely).
pub const MEASUREMENT_CRATES: &[&str] = &["bench"];

/// Where the raw span primitive is allowed to appear (R4).
pub const TELEMETRY_MODULE: &str = "crates/simnet/src/telemetry.rs";

/// Where the SLO window internals are allowed to appear (R4).
pub const SLO_MODULE: &str = "crates/simnet/src/slo.rs";

/// The R4 confinement table: `(ident, sanctioned module)`. Each ident
/// may only appear in its module; everywhere else it is a finding. Add
/// an entry when introducing a collector internal whose direct use
/// outside its module would bypass an invariant the public front
/// maintains (sampler accounting, SLO window pruning).
pub const R4_CONFINED: &[(&str, &str)] = &[
    ("open_span", TELEMETRY_MODULE),
    ("finalize_trace", TELEMETRY_MODULE),
    ("evict_oldest_trace", TELEMETRY_MODULE),
    ("buffered_span_mut", TELEMETRY_MODULE),
    ("prune_window", SLO_MODULE),
    ("burn_within", SLO_MODULE),
];

/// The directory holding the migration concern modules. R6 sanctions the
/// confined idents anywhere under this prefix (the concerns cooperate
/// across their files), nowhere else; R9 polices every fn under it.
pub const LAYERS_DIR: &str = "crates/core/src/layers/";

/// The R6 confinement table: idents that implement one of the five
/// migration concerns and must not be referenced outside [`LAYERS_DIR`].
/// Add an entry when a concern grows an internal whose direct use from
/// the migration driver would smuggle the concern back into
/// `middleware.rs`. The functions the driver calls at each lifecycle
/// point, and the deliberate cross-cutting seams (`abort_departure`,
/// `note_clone_dispatched`, the in-flight table accessors), are *not*
/// listed — they are the reviewed surface the driver may touch.
pub const R6_CONFINED: &[&str] = &[
    // telemetry: span plumbing for the migration trace tree
    "ctx_span",
    "migrate_span",
    // fault retry: watchdogs, retry nudges, rollback
    "arm_watchdog",
    "check_migration",
    "rollback_migration",
    // data path: content store and snapshot resolution
    "remember_content",
    "host_holds_content",
    "resolve_snapshot",
    "resend_full_snapshot",
    "fetch_elided",
    "note_arrival",
    // SLO: burn-rate feeds
    "slo_record",
];

/// A tracked enum for R5: every variant must show up in each site fn.
pub struct EnumSpec {
    /// Workspace-relative path of the file holding the enum and its sites.
    pub path: &'static str,
    /// The enum's name.
    pub enum_name: &'static str,
    /// Names of the companion functions (`fn` items in the same file) that
    /// must each mention every variant. Same-named functions are unioned.
    pub sites: &'static [&'static str],
}

/// The R5 registry. Add an entry when introducing a hand-written
/// encode/decode or stringify match over a wire-visible enum.
pub const R5_TRACKED: &[EnumSpec] = &[
    EnumSpec {
        path: "crates/core/src/binding.rs",
        enum_name: "BindingTarget",
        sites: &["encode", "decode"],
    },
    EnumSpec {
        path: "crates/simnet/src/trace.rs",
        enum_name: "TraceEvent",
        sites: &["kind", "fmt"],
    },
];

/// Per-file context derived from the workspace-relative path.
pub struct FileCtx<'a> {
    /// Unix-style path relative to the workspace root.
    pub rel_path: &'a str,
    /// `crates/<name>/…` → `<name>`; `None` for the root package.
    pub crate_name: Option<&'a str>,
    /// True when the path itself is test/bench scaffolding
    /// (`tests/`, `benches/` directories).
    pub path_is_test: bool,
}

impl<'a> FileCtx<'a> {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &'a str) -> Self {
        let mut crate_name = None;
        if let Some(rest) = rel_path.strip_prefix("crates/") {
            if let Some((name, _)) = rest.split_once('/') {
                crate_name = Some(name);
            }
        }
        let path_is_test = rel_path.split('/').any(|c| c == "tests" || c == "benches");
        FileCtx {
            rel_path,
            crate_name,
            path_is_test,
        }
    }

    fn in_measurement_crate(&self) -> bool {
        matches!(self.crate_name, Some(c) if MEASUREMENT_CRATES.contains(&c))
    }

    fn in_sim_visible_crate(&self) -> bool {
        matches!(self.crate_name, Some(c) if SIM_VISIBLE_CRATES.contains(&c))
    }
}

fn snippet(lines: &[&str], line: u32) -> String {
    lines
        .get((line as usize).saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

fn finding(rule: &'static str, ctx: &FileCtx<'_>, lines: &[&str], line: u32) -> Finding {
    Finding {
        rule,
        file: ctx.rel_path.to_string(),
        line,
        snippet: snippet(lines, line),
        allowed: false,
        reason: None,
        call_path: Vec::new(),
    }
}

/// True when `toks[i..]` starts with the given ident/punct pattern.
/// Pattern entries are idents unless they are a single punctuation char.
fn matches_seq(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > toks.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let t = &toks[i + k];
        if p.len() == 1
            && !p
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            t.kind == TokKind::Punct && t.text == *p
        } else {
            t.kind == TokKind::Ident && t.text == *p
        }
    })
}

/// Runs R1–R4 and R6 over one file's source. R5 runs separately via
/// [`check_enum_spec`] because it is driven by [`R5_TRACKED`].
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let ctx = FileCtx::from_rel_path(rel_path);
    let toks = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    rule_r1(&ctx, &toks, &lines, &mut out);
    rule_r2(&ctx, &toks, &lines, &mut out);
    rule_r3(&ctx, &toks, &lines, &mut out);
    rule_r4(&ctx, &toks, &lines, &mut out);
    rule_r6(&ctx, &toks, &lines, &mut out);
    out
}

const R1_PATTERNS: &[&[&str]] = &[
    &["Instant", ":", ":", "now"],
    &["SystemTime", ":", ":", "now"],
    &["thread_rng"],
    &["rand", ":", ":", "random"],
    &["std", ":", ":", "env"],
];

fn rule_r1(ctx: &FileCtx<'_>, toks: &[Tok], lines: &[&str], out: &mut Vec<Finding>) {
    if ctx.in_measurement_crate() || ctx.path_is_test {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        for pat in R1_PATTERNS {
            if matches_seq(toks, i, pat) {
                out.push(finding("R1", ctx, lines, toks[i].line));
                break;
            }
        }
    }
}

/// Constructors that commit a `HashMap`/`HashSet` to the default
/// `RandomState` hasher. Hasher-explicit constructors
/// (`with_hasher`, `with_capacity_and_hasher`) are fine.
const R2_DEFAULT_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter", "default"];

fn rule_r2(ctx: &FileCtx<'_>, toks: &[Tok], lines: &[&str], out: &mut Vec<Finding>) {
    if !ctx.in_sim_visible_crate() || ctx.path_is_test {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let (is_map, is_set) = (t.text == "HashMap", t.text == "HashSet");
        if !is_map && !is_set {
            continue;
        }
        // `HashMap::new()` and friends.
        if matches_seq(toks, i + 1, &[":", ":"]) {
            if let Some(m) = toks.get(i + 3) {
                if m.kind == TokKind::Ident && R2_DEFAULT_CTORS.contains(&m.text.as_str()) {
                    out.push(finding("R2", ctx, lines, t.line));
                    continue;
                }
            }
        }
        // Type position: `HashMap<K, V>` (2 args) / `HashSet<T>` (1 arg)
        // means the third (hasher) parameter defaulted to `RandomState`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            if let Some(args) = count_generic_args(toks, i + 1) {
                if (is_map && args == 2) || (is_set && args == 1) {
                    out.push(finding("R2", ctx, lines, t.line));
                }
            }
        }
    }
}

/// Counts top-level generic arguments of the angle-bracket group opening at
/// `toks[open]` (which must be `<`). Returns `None` if the group does not
/// close within a sane window (then it probably was a comparison).
fn count_generic_args(toks: &[Tok], open: usize) -> Option<usize> {
    let mut angle = 1usize;
    let mut brackets = 0isize; // (), [] nesting — commas inside don't count
    let mut commas = 0usize;
    let mut saw_any = false;
    let mut j = open + 1;
    let limit = (open + 256).min(toks.len());
    while j < limit {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => {
                    // `->` return arrows inside fn-pointer types.
                    if j > 0 && toks[j - 1].is_punct('-') {
                        j += 1;
                        continue;
                    }
                    angle -= 1;
                    if angle == 0 {
                        return if saw_any { Some(commas + 1) } else { Some(0) };
                    }
                }
                "(" | "[" => brackets += 1,
                ")" | "]" => brackets -= 1,
                "," if angle == 1 && brackets == 0 => commas += 1,
                ";" => return None,
                _ => {}
            }
        } else {
            saw_any = true;
        }
        j += 1;
    }
    None
}

fn rule_r3(ctx: &FileCtx<'_>, toks: &[Tok], lines: &[&str], out: &mut Vec<Finding>) {
    if ctx.in_measurement_crate() || ctx.path_is_test {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // Method position only: `.unwrap(` / `.expect(` — leaves
            // differently-named helpers like `expect_token` alone.
            "unwrap" | "expect" => {
                let prev_dot = i > 0 && toks[i - 1].is_punct('.');
                let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if prev_dot && next_paren {
                    out.push(finding("R3", ctx, lines, t.line));
                }
            }
            // Macro position only: `panic!(` etc. — `std::panic::catch_unwind`
            // and `#[should_panic]` stay legal.
            "panic" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(finding("R3", ctx, lines, t.line));
            }
            _ => {}
        }
    }
}

fn rule_r4(ctx: &FileCtx<'_>, toks: &[Tok], lines: &[&str], out: &mut Vec<Finding>) {
    for t in toks {
        // Deliberately also flagged inside test code: tests must exercise
        // the public fronts like everyone else.
        if t.kind != TokKind::Ident {
            continue;
        }
        for (ident, module) in R4_CONFINED {
            if t.text == *ident && ctx.rel_path != *module {
                out.push(finding("R4", ctx, lines, t.line));
                break;
            }
        }
    }
}

fn rule_r6(ctx: &FileCtx<'_>, toks: &[Tok], lines: &[&str], out: &mut Vec<Finding>) {
    // Inside the layers directory every concern ident is at home — the
    // concerns legitimately call across each other (fault retry feeds
    // the SLO on rollback).
    if ctx.rel_path.starts_with(LAYERS_DIR) {
        return;
    }
    for t in toks {
        // As with R4, test code is not exempt: tests drive migrations
        // through the public lifecycle, never a concern's internals.
        if t.kind != TokKind::Ident {
            continue;
        }
        if R6_CONFINED.contains(&t.text.as_str()) {
            out.push(finding("R6", ctx, lines, t.line));
        }
    }
}

/// Runs R5 for one [`EnumSpec`] against the file's source. Returns one
/// finding per (variant, site) pair missing, plus findings for a missing
/// enum or site function (so the rule fails loudly on renames).
pub fn check_enum_spec(spec: &EnumSpec, source: &str) -> Vec<Finding> {
    let toks = lex(source);
    let mut out = Vec::new();

    let Some((enum_line, variants)) = collect_variants(&toks, spec.enum_name) else {
        out.push(Finding {
            rule: "R5",
            file: spec.path.to_string(),
            line: 1,
            snippet: format!("tracked enum `{}` not found", spec.enum_name),
            allowed: false,
            reason: None,
            call_path: Vec::new(),
        });
        return out;
    };

    for site in spec.sites {
        let Some(mentioned) = collect_site_mentions(&toks, site, spec.enum_name) else {
            out.push(Finding {
                rule: "R5",
                file: spec.path.to_string(),
                line: enum_line,
                snippet: format!("tracked site fn `{site}` not found"),
                allowed: false,
                reason: None,
                call_path: Vec::new(),
            });
            continue;
        };
        for v in &variants {
            if !mentioned.iter().any(|m| m == v) {
                out.push(Finding {
                    rule: "R5",
                    file: spec.path.to_string(),
                    line: enum_line,
                    snippet: format!(
                        "variant `{}::{}` missing from `{}`",
                        spec.enum_name, v, site
                    ),
                    allowed: false,
                    reason: None,
                    call_path: Vec::new(),
                });
            }
        }
    }
    out
}

/// Finds `enum <name> { ... }` and returns its declaration line plus the
/// variant names (payloads and discriminants skipped).
fn collect_variants(toks: &[Tok], name: &str) -> Option<(u32, Vec<String>)> {
    let mut i = 0usize;
    loop {
        if i + 1 >= toks.len() {
            return None;
        }
        if toks[i].is_ident("enum") && toks[i + 1].is_ident(name) {
            break;
        }
        i += 1;
    }
    let decl_line = toks[i].line;
    // Skip to the opening brace.
    let mut j = i + 2;
    while j < toks.len() && !toks[j].is_punct('{') {
        j += 1;
    }
    let mut depth = 1usize;
    let mut k = j + 1;
    let mut variants = Vec::new();
    let mut expect_variant = true;
    while k < toks.len() && depth > 0 {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 1 => expect_variant = true,
                // Attribute on a variant: skip `#[ ... ]` without
                // disturbing the expect_variant state.
                "#" if depth == 1 && toks.get(k + 1).is_some_and(|n| n.is_punct('[')) => {
                    let mut ad = 1usize;
                    k += 2;
                    while k < toks.len() && ad > 0 {
                        if toks[k].is_punct('[') {
                            ad += 1;
                        } else if toks[k].is_punct(']') {
                            ad -= 1;
                        }
                        k += 1;
                    }
                    continue;
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && depth == 1 && expect_variant {
            variants.push(t.text.clone());
            expect_variant = false;
        }
        k += 1;
    }
    Some((decl_line, variants))
}

/// Unions `Enum::Variant` / `Self::Variant` mentions across every `fn
/// <site>` body in the file. Returns `None` when no such fn exists.
fn collect_site_mentions(toks: &[Tok], site: &str, enum_name: &str) -> Option<Vec<String>> {
    let mut mentioned: Vec<String> = Vec::new();
    let mut found = false;
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("fn") && toks[i + 1].is_ident(site)) {
            i += 1;
            continue;
        }
        // Find the body (bail at `;` — trait method declarations).
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(start) = open else {
            i = j;
            continue;
        };
        found = true;
        let mut depth = 1usize;
        let mut k = start + 1;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if (t.is_ident(enum_name) || t.is_ident("Self"))
                && matches_seq(toks, k + 1, &[":", ":"])
            {
                if let Some(v) = toks.get(k + 3) {
                    if v.kind == TokKind::Ident {
                        mentioned.push(v.text.clone());
                    }
                }
            }
            k += 1;
        }
        i = k;
    }
    if found {
        Some(mentioned)
    } else {
        None
    }
}
