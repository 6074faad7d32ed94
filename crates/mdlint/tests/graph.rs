//! Tests for the structural analysis layer: the item parser, the
//! conservative call graph, the graph rules R7–R9, the wire-schema lock
//! (R10), stale-allowlist detection, and the v2 report shape.
//!
//! Fixture paths use sim-visible-crate shapes (`crates/core/src/…`) so
//! they behave exactly like workspace files, but deliberately avoid the
//! two guard-anchor paths (`crates/core/src/middleware.rs`,
//! `crates/simnet/src/event.rs`) except where the guards themselves are
//! under test.

use mdlint::allow::parse_allowlist;
use mdlint::callgraph::CallGraph;
use mdlint::parser::{call_sites, parse_file, CallSite, ParsedFile};
use mdlint::report::render_report;
use mdlint::wire_schema::{self, WireShape};
use mdlint::{apply_allowlist, scan_graph_sources, stale_entries, Finding};

const R7_VIOLATION: &str = include_str!("fixtures/graph_r7_violation.rs");
const R7_CLEAN: &str = include_str!("fixtures/graph_r7_clean.rs");
const R8_VIOLATION: &str = include_str!("fixtures/graph_r8_violation.rs");
const R8_CLEAN: &str = include_str!("fixtures/graph_r8_clean.rs");
const R9_VIOLATION: &str = include_str!("fixtures/graph_r9_violation.rs");
const R9_CLEAN_LAYER: &str = include_str!("fixtures/graph_r9_clean_layer.rs");
const R9_CLEAN_PLATFORM: &str = include_str!("fixtures/graph_r9_clean_platform.rs");
const R9_MIDDLEWARE_FN: &str = include_str!("fixtures/graph_r9_middleware_fn.rs");

fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    scan_graph_sources(&owned)
}

fn coords(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------------------
// R7 panic reachability
// ---------------------------------------------------------------------------

#[test]
fn r7_reports_transitive_panic_with_full_call_path() {
    let findings = scan(&[("crates/core/src/fixture.rs", R7_VIOLATION)]);
    assert_eq!(coords(&findings, "R7"), vec![13]);
    let f = findings.iter().find(|f| f.rule == "R7").unwrap();
    assert_eq!(f.file, "crates/core/src/fixture.rs");
    let path: Vec<&str> = f.call_path.iter().map(String::as_str).collect();
    assert_eq!(
        path,
        vec![
            "crates/core/src/fixture.rs:4 handle_request",
            "crates/core/src/fixture.rs:8 step_one",
            "crates/core/src/fixture.rs:12 step_two",
            "crates/core/src/fixture.rs:13 unwrap/expect site",
        ]
    );
}

#[test]
fn r7_ignores_panics_not_reachable_from_entries() {
    let findings = scan(&[("crates/core/src/fixture.rs", R7_CLEAN)]);
    assert!(coords(&findings, "R7").is_empty(), "{findings:?}");
}

#[test]
fn r7_guard_fires_when_anchor_file_has_no_entry_annotations() {
    let findings = scan(&[("crates/core/src/middleware.rs", "pub fn noop() {}\n")]);
    let r7: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R7").collect();
    assert_eq!(r7.len(), 1);
    assert_eq!(r7[0].line, 1);
    assert!(
        r7[0].snippet.contains("no `// mdlint::entry`"),
        "{:?}",
        r7[0]
    );
}

#[test]
fn r7_detects_indexing_and_risky_division() {
    let src = "\
// mdlint::entry
pub fn lookup(table: &Table, i: usize, n: u64) -> u64 {
    let x = table.cells[i];
    x / n
}
";
    let findings = scan(&[("crates/core/src/fixture.rs", src)]);
    assert_eq!(coords(&findings, "R7"), vec![3, 4]);
}

#[test]
fn r7_skips_literal_and_float_divisions() {
    let src = "\
// mdlint::entry
pub fn ratios(a: u64, n: u64) -> f64 {
    let half = a / 2;
    let safe = a as f64 / n as f64;
    safe + half as f64
}
";
    let findings = scan(&[("crates/core/src/fixture.rs", src)]);
    assert!(coords(&findings, "R7").is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// R8 hot-path allocation
// ---------------------------------------------------------------------------

#[test]
fn r8_reports_reachable_allocations_with_call_paths() {
    let findings = scan(&[("crates/simnet/src/fixture.rs", R8_VIOLATION)]);
    assert_eq!(coords(&findings, "R8"), vec![9, 10, 11]);
    let f = findings.iter().find(|f| f.line == 10).unwrap();
    assert_eq!(
        f.call_path,
        vec![
            "crates/simnet/src/fixture.rs:4 tick",
            "crates/simnet/src/fixture.rs:8 record",
            "crates/simnet/src/fixture.rs:10 format! site",
        ]
    );
}

#[test]
fn r8_respects_reserve_and_cold_barriers() {
    let findings = scan(&[("crates/simnet/src/fixture.rs", R8_CLEAN)]);
    assert!(coords(&findings, "R8").is_empty(), "{findings:?}");
}

#[test]
fn r8_guard_fires_when_anchor_file_has_no_hot_annotations() {
    let findings = scan(&[("crates/simnet/src/event.rs", "pub fn noop() {}\n")]);
    let r8: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R8").collect();
    assert_eq!(r8.len(), 1);
    assert_eq!(r8[0].line, 1);
    assert!(r8[0].snippet.contains("no `// mdlint::hot`"), "{:?}", r8[0]);
}

// ---------------------------------------------------------------------------
// R9 layer re-entrance
// ---------------------------------------------------------------------------

#[test]
fn r9_flags_layer_fn_reaching_the_lifecycle() {
    let findings = scan(&[("crates/core/src/layers/fixture.rs", R9_VIOLATION)]);
    assert_eq!(coords(&findings, "R9"), vec![7]);
    let f = findings.iter().find(|f| f.rule == "R9").unwrap();
    assert_eq!(
        f.call_path,
        vec![
            "crates/core/src/layers/fixture.rs:7 RetryLayer::on_abort",
            "crates/core/src/layers/fixture.rs:15 Middleware::migrate_now",
        ]
    );
}

#[test]
fn r9_flags_middleware_fn_in_a_layer_file_reaching_the_lifecycle() {
    let findings = scan(&[
        ("crates/core/src/layers/fixture.rs", R9_MIDDLEWARE_FN),
        (
            "crates/core/src/lifecycle_fixture.rs",
            "pub struct World;\nimpl Middleware {\n    pub fn migrate_now(_world: &mut World) {}\n}\n",
        ),
    ]);
    assert_eq!(coords(&findings, "R9"), vec![8]);
    let f = findings.iter().find(|f| f.rule == "R9").unwrap();
    assert_eq!(
        f.call_path,
        vec![
            "crates/core/src/layers/fixture.rs:8 Middleware::feed_slo",
            "crates/core/src/lifecycle_fixture.rs:3 Middleware::migrate_now",
        ]
    );
}

#[test]
fn r9_does_not_traverse_the_async_message_boundary() {
    let findings = scan(&[
        ("crates/core/src/layers/fixture.rs", R9_CLEAN_LAYER),
        ("crates/agent/src/platform_fixture.rs", R9_CLEAN_PLATFORM),
    ]);
    assert!(coords(&findings, "R9").is_empty(), "{findings:?}");
}

#[test]
fn r9_ignores_the_same_call_outside_layer_files() {
    // Identical code under a non-layers path: only R6/R7 concerns apply,
    // not R9.
    let findings = scan(&[("crates/core/src/fixture.rs", R9_VIOLATION)]);
    assert!(coords(&findings, "R9").is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Allowlist coverage of graph findings + stale detection
// ---------------------------------------------------------------------------

#[test]
fn graph_findings_can_be_allowlisted_and_carry_reasons() {
    let mut findings = scan(&[("crates/core/src/fixture.rs", R7_VIOLATION)]);
    let entries = parse_allowlist(
        "[[allow]]\n\
         rule = \"R7\"\n\
         path = \"crates/core/src/fixture.rs\"\n\
         reason = \"fixture invariant\"\n",
    )
    .unwrap();
    apply_allowlist(&mut findings, &entries);
    let f = findings.iter().find(|f| f.rule == "R7").unwrap();
    assert!(f.allowed);
    assert_eq!(f.reason.as_deref(), Some("fixture invariant"));
    assert!(stale_entries(&findings, &entries).is_empty());
}

#[test]
fn stale_allowlist_entries_are_reported_with_their_toml_line() {
    let mut findings = scan(&[("crates/core/src/fixture.rs", R7_VIOLATION)]);
    let entries = parse_allowlist(
        "[[allow]]\n\
         rule = \"R7\"\n\
         path = \"crates/core/src/fixture.rs\"\n\
         reason = \"covers the unwrap\"\n\
         \n\
         [[allow]]\n\
         rule = \"R7\"\n\
         path = \"crates/core/src/fixture.rs\"\n\
         line = 999\n\
         reason = \"matches nothing\"\n",
    )
    .unwrap();
    apply_allowlist(&mut findings, &entries);
    let stale = stale_entries(&findings, &entries);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "STALE");
    assert_eq!(stale[0].file, "lint-allow.toml");
    assert_eq!(stale[0].line, 6);
    assert!(stale[0].snippet.contains(":999"), "{:?}", stale[0]);
}

// ---------------------------------------------------------------------------
// Call-graph resolution
// ---------------------------------------------------------------------------

fn build(files: &[(&str, &str)]) -> (CallGraph, Vec<ParsedFile>) {
    let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
    (CallGraph::build(&parsed), parsed)
}

fn node(g: &CallGraph, label: &str) -> usize {
    g.nodes
        .iter()
        .position(|n| n.label() == label)
        .unwrap_or_else(|| panic!("no node labelled {label}"))
}

fn callees(g: &CallGraph, from: &str) -> Vec<String> {
    let i = node(g, from);
    g.edges[i]
        .iter()
        .map(|e| format!("{}::{}", g.nodes[e.to].file, g.nodes[e.to].label()))
        .collect()
}

#[test]
fn free_call_prefers_same_file_same_module_shadowing() {
    let (g, _) = build(&[
        (
            "crates/core/src/a.rs",
            "pub fn caller() { helper(); }\nfn helper() {}\n",
        ),
        ("crates/agent/src/b.rs", "fn helper() {}\n"),
    ]);
    assert_eq!(callees(&g, "caller"), vec!["crates/core/src/a.rs::helper"]);
}

#[test]
fn free_call_without_local_match_links_every_candidate() {
    let (g, _) = build(&[
        ("crates/core/src/a.rs", "pub fn caller() { remote(); }\n"),
        ("crates/agent/src/b.rs", "fn remote() {}\n"),
        ("crates/wire/src/c.rs", "fn remote() {}\n"),
    ]);
    assert_eq!(
        callees(&g, "caller"),
        vec![
            "crates/agent/src/b.rs::remote",
            "crates/wire/src/c.rs::remote"
        ]
    );
}

#[test]
fn self_method_resolves_only_within_the_callers_type() {
    let src = "\
pub struct Foo;
impl Foo {
    pub fn run(&self) {
        self.step();
    }
    fn step(&self) {}
}
pub struct Bar;
impl Bar {
    fn step(&self) {}
}
";
    let (g, _) = build(&[("crates/core/src/a.rs", src)]);
    assert_eq!(
        callees(&g, "Foo::run"),
        vec!["crates/core/src/a.rs::Foo::step"]
    );
}

#[test]
fn qualified_call_resolves_methods_and_module_free_fns() {
    let (g, _) = build(&[
        (
            "crates/core/src/a.rs",
            "pub fn caller() {\n    Baz::make();\n    store::lookup();\n}\n",
        ),
        (
            "crates/ontology/src/b.rs",
            "pub struct Baz;\nimpl Baz {\n    pub fn make() {}\n}\nmod store {\n    pub fn lookup() {}\n}\n",
        ),
    ]);
    assert_eq!(
        callees(&g, "caller"),
        vec![
            "crates/ontology/src/b.rs::Baz::make",
            "crates/ontology/src/b.rs::lookup"
        ]
    );
}

#[test]
fn qualified_call_resolves_free_fns_of_file_modules() {
    // `store::lookup()` names the top of `store.rs`, `layers::hook()` the
    // top of `layers/mod.rs`; a same-named fn in another file module is
    // not `store`'s.
    let (g, _) = build(&[
        (
            "crates/core/src/a.rs",
            "pub fn caller() {\n    store::lookup();\n    crate::layers::hook();\n}\n",
        ),
        ("crates/core/src/store.rs", "pub fn lookup() {}\n"),
        ("crates/core/src/layers/mod.rs", "pub fn hook() {}\n"),
        ("crates/core/src/other.rs", "pub fn lookup() {}\n"),
    ]);
    assert_eq!(
        callees(&g, "caller"),
        vec![
            "crates/core/src/layers/mod.rs::hook",
            "crates/core/src/store.rs::lookup"
        ]
    );
}

#[test]
fn turbofish_calls_are_call_sites() {
    let src = "\
pub fn caller(msg: &Msg) {
    decode::<Cargo>(1);
    msg.payload::<Plan>();
    wire::from_bytes::<Vec<Vec<u8>>>(b);
    run::<fn() -> u8>(f);
    let n = Vec::<u8>::len;
}
";
    let file = parse_file("crates/core/src/a.rs", src);
    let body = file.fns[0].body.unwrap();
    let free = |name: &str, line| CallSite::Free {
        name: name.into(),
        line,
    };
    assert_eq!(
        call_sites(&file.toks, body),
        vec![
            free("decode", 2),
            CallSite::Method {
                name: "payload".into(),
                line: 3
            },
            CallSite::Path {
                qualifier: vec!["wire".into()],
                name: "from_bytes".into(),
                line: 4
            },
            free("run", 5),
        ]
    );
}

#[test]
fn ambiguous_receiver_method_links_every_impl_conservatively() {
    let src = "\
pub fn dispatch(q: &Queue) {
    q.settle();
}
pub struct A;
impl A {
    pub fn settle(&self) {}
}
pub struct B;
impl B {
    pub fn settle(&self) {}
}
";
    let (g, _) = build(&[("crates/simnet/src/a.rs", src)]);
    assert_eq!(
        callees(&g, "dispatch"),
        vec![
            "crates/simnet/src/a.rs::A::settle",
            "crates/simnet/src/a.rs::B::settle"
        ]
    );
}

#[test]
fn opaque_method_names_are_not_linked_through_receivers() {
    // `get` collides with std vocabulary: a bare `expr.get(..)` must not
    // wire into workspace types, but `self.get()`/`Thing::get()` still do.
    let src = "\
pub struct Thing;
impl Thing {
    pub fn get(&self) {}
    pub fn via_self(&self) {
        self.get();
    }
}
pub fn via_receiver(t: &Thing) {
    t.get();
}
";
    let (g, _) = build(&[("crates/core/src/a.rs", src)]);
    assert!(callees(&g, "via_receiver").is_empty());
    assert_eq!(
        callees(&g, "Thing::via_self"),
        vec!["crates/core/src/a.rs::Thing::get"]
    );
}

#[test]
fn test_region_fns_stay_out_of_the_graph() {
    let src = "\
pub fn caller() { helper(); }
fn helper() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
    let (g, _) = build(&[("crates/core/src/a.rs", src)]);
    assert_eq!(g.nodes.len(), 2);
    assert_eq!(callees(&g, "caller"), vec!["crates/core/src/a.rs::helper"]);
}

// ---------------------------------------------------------------------------
// R10 wire-schema lock
// ---------------------------------------------------------------------------

const WIRE_FIXTURE: &str = "\
pub struct Header {
    pub seq: u64,
    pub kind: u8,
}

impl_wire_struct!(Header { seq, kind });

pub enum Mode {
    Fast,
    Safe,
}

impl_wire_enum!(Mode {
    Fast = 0,
    Safe = 1,
});

pub struct Record {
    pub seq: u64,
    pub note: Option<String>,
}

impl Wire for Record {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        if let Some(note) = &self.note {
            note.encode(buf);
        }
    }
}
";

fn extract_from(src: &str) -> Vec<wire_schema::WireType> {
    let parsed = vec![parse_file("crates/wire/src/fixture.rs", src)];
    wire_schema::extract(&parsed)
}

#[test]
fn wire_extraction_recovers_macro_and_manual_shapes() {
    let types = extract_from(WIRE_FIXTURE);
    let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, vec!["Header", "Mode", "Record"]);

    let WireShape::Struct { fields, manual } = &types[0].shape else {
        panic!("Header should be a struct");
    };
    assert!(!manual);
    let fs: Vec<(&str, &str)> = fields
        .iter()
        .map(|f| (f.name.as_str(), f.ty.as_str()))
        .collect();
    assert_eq!(fs, vec![("seq", "u64"), ("kind", "u8")]);

    let WireShape::Enum { variants } = &types[1].shape else {
        panic!("Mode should be an enum");
    };
    assert_eq!(
        variants,
        &[
            ("Fast".to_string(), "0".to_string()),
            ("Safe".to_string(), "1".to_string())
        ]
    );

    let WireShape::Struct { fields, manual } = &types[2].shape else {
        panic!("Record should be a struct");
    };
    assert!(manual);
    assert!(!fields[0].trailing_optional);
    assert!(fields[1].trailing_optional);
    assert_eq!(fields[1].ty, "Option<String>");
}

#[test]
fn wire_lock_round_trips_cleanly() {
    let types = extract_from(WIRE_FIXTURE);
    let lock = wire_schema::render(&types);
    assert!(wire_schema::check(Some(&lock), &types).is_empty());
}

#[test]
fn missing_and_malformed_locks_report_at_the_lock_file() {
    let types = extract_from(WIRE_FIXTURE);
    for (text, needle) in [(None, "missing"), (Some("{ not json"), "malformed")] {
        let findings = wire_schema::check(text, &types);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "R10");
        assert_eq!(findings[0].file, wire_schema::LOCK_FILE);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].snippet.contains(needle), "{:?}", findings[0]);
    }
}

/// Checks the mutated source against the lock of the pristine fixture and
/// returns the findings.
fn check_mutation(mutated: &str) -> Vec<Finding> {
    let lock = wire_schema::render(&extract_from(WIRE_FIXTURE));
    wire_schema::check(Some(&lock), &extract_from(mutated))
}

#[test]
fn field_reorder_is_a_wire_break_at_the_type() {
    let mutated = WIRE_FIXTURE.replace(
        "impl_wire_struct!(Header { seq, kind });",
        "impl_wire_struct!(Header { kind, seq });",
    );
    let findings = check_mutation(&mutated);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].file, "crates/wire/src/fixture.rs");
    assert!(
        findings[0].snippet.contains("field 0 changed"),
        "{:?}",
        findings[0]
    );
}

#[test]
fn field_removal_is_a_wire_break() {
    let mutated = WIRE_FIXTURE.replace(
        "impl_wire_struct!(Header { seq, kind });",
        "impl_wire_struct!(Header { seq });",
    );
    let findings = check_mutation(&mutated);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("lost field `kind`"),
        "{:?}",
        findings[0]
    );
}

#[test]
fn field_width_change_is_a_wire_break() {
    let mutated = WIRE_FIXTURE.replace("pub kind: u8,", "pub kind: u16,");
    let findings = check_mutation(&mutated);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("`kind: u8` to `kind: u16`"),
        "{:?}",
        findings[0]
    );
}

#[test]
fn mid_insert_and_non_optional_append_are_wire_breaks() {
    let mid = WIRE_FIXTURE
        .replace(
            "pub seq: u64,\n    pub kind: u8,",
            "pub seq: u64,\n    pub extra: u32,\n    pub kind: u8,",
        )
        .replace(
            "impl_wire_struct!(Header { seq, kind });",
            "impl_wire_struct!(Header { seq, extra, kind });",
        );
    let findings = check_mutation(&mid);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("field 1 changed"),
        "{:?}",
        findings[0]
    );

    let append = WIRE_FIXTURE
        .replace(
            "pub seq: u64,\n    pub kind: u8,",
            "pub seq: u64,\n    pub kind: u8,\n    pub extra: u32,",
        )
        .replace(
            "impl_wire_struct!(Header { seq, kind });",
            "impl_wire_struct!(Header { seq, kind, extra });",
        );
    let findings = check_mutation(&append);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("non-trailing-optional"),
        "{:?}",
        findings[0]
    );
}

#[test]
fn enum_tag_change_and_tag_reuse_are_wire_breaks() {
    let retag = WIRE_FIXTURE.replace("Safe = 1,", "Safe = 2,");
    let findings = check_mutation(&retag);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("tag changed 1 -> 2"),
        "{:?}",
        findings[0]
    );

    let reuse = WIRE_FIXTURE.replace("Safe = 1,", "Safe = 1,\n    Turbo = 0,");
    let findings = check_mutation(&reuse);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].snippet.contains("reuses tag 0"),
        "{:?}",
        findings[0]
    );
}

#[test]
fn legal_evolutions_report_a_single_stale_lock_finding() {
    // Trailing-optional append on the manual impl, a fresh-tag variant and
    // a brand-new type are all compatible; together they yield exactly one
    // "stale lock" prompt at the lock file, not a break at any type.
    let evolved = WIRE_FIXTURE
        .replace(
            "        if let Some(note) = &self.note {\n            note.encode(buf);\n        }",
            "        if let Some(note) = &self.note {\n            note.encode(buf);\n        }\n        if let Some(extra) = &self.extra {\n            extra.encode(buf);\n        }",
        )
        .replace("Safe = 1,", "Safe = 1,\n    Turbo = 7,")
        .replace(
            "impl_wire_struct!(Header { seq, kind });",
            "impl_wire_struct!(Header { seq, kind });\n\npub struct Footer {\n    pub crc: u32,\n}\n\nimpl_wire_struct!(Footer { crc });",
        );
    let findings = check_mutation(&evolved);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, wire_schema::LOCK_FILE);
    assert!(findings[0].snippet.contains("stale"), "{:?}", findings[0]);
    assert!(
        findings[0].snippet.contains("trailing-optional"),
        "{:?}",
        findings[0]
    );
    assert!(findings[0].snippet.contains("Turbo"), "{:?}", findings[0]);
    assert!(findings[0].snippet.contains("Footer"), "{:?}", findings[0]);
}

#[test]
fn vanished_wire_type_reports_at_the_lock_file() {
    let lock = wire_schema::render(&extract_from(WIRE_FIXTURE));
    let shrunk = WIRE_FIXTURE.replace(
        "impl_wire_enum!(Mode {\n    Fast = 0,\n    Safe = 1,\n});",
        "",
    );
    let findings = wire_schema::check(Some(&lock), &extract_from(&shrunk));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].file, wire_schema::LOCK_FILE);
    assert!(
        findings[0].snippet.contains("`Mode` disappeared"),
        "{:?}",
        findings[0]
    );
}

// ---------------------------------------------------------------------------
// Report v2
// ---------------------------------------------------------------------------

#[test]
fn report_v2_emits_call_paths_for_graph_findings() {
    let findings = scan(&[("crates/core/src/fixture.rs", R7_VIOLATION)]);
    let json = render_report(&findings);
    assert!(json.contains("\"schema\": \"mdlint-report-v4\""));
    assert!(json.contains("\"call_path\": ["));
    assert!(json.contains("crates/core/src/fixture.rs:12 step_two"));
}

#[test]
fn report_v2_omits_call_path_for_lexical_findings() {
    let findings = mdlint::rules::scan_source(
        "crates/core/src/fixture.rs",
        "fn f() { let t = std::time::Instant::now(); }\n",
    );
    assert!(!findings.is_empty());
    let json = render_report(&findings);
    assert!(!json.contains("call_path"), "{json}");
}
