//! Fixture-based tests for the six mdlint rules.
//!
//! Each rule gets a violating fixture (asserting exact rule IDs and line
//! numbers), a clean fixture, and an allowlisted case. Fixtures live under
//! `tests/fixtures/`, which the workspace walker skips, so they never leak
//! into the real scan.

use mdlint::allow::parse_allowlist;
use mdlint::rules::{check_enum_spec, scan_source, EnumSpec};
use mdlint::{apply_allowlist, report::render_report};

const R1_VIOLATION: &str = include_str!("fixtures/r1_violation.rs");
const R1_CLEAN: &str = include_str!("fixtures/r1_clean.rs");
const R2_VIOLATION: &str = include_str!("fixtures/r2_violation.rs");
const R2_CLEAN: &str = include_str!("fixtures/r2_clean.rs");
const R3_VIOLATION: &str = include_str!("fixtures/r3_violation.rs");
const R3_CLEAN: &str = include_str!("fixtures/r3_clean.rs");
const R4_VIOLATION: &str = include_str!("fixtures/r4_violation.rs");
const R4_CLEAN: &str = include_str!("fixtures/r4_clean.rs");
const R5_VIOLATION: &str = include_str!("fixtures/r5_violation.rs");
const R5_CLEAN: &str = include_str!("fixtures/r5_clean.rs");
const R6_VIOLATION: &str = include_str!("fixtures/r6_violation.rs");
const R6_CLEAN: &str = include_str!("fixtures/r6_clean.rs");

/// (rule, line) pairs of the findings, in scan order.
fn coords(findings: &[mdlint::Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn r1_flags_wallclock_entropy_and_env() {
    let f = scan_source("crates/core/src/fixture.rs", R1_VIOLATION);
    assert_eq!(coords(&f), vec![("R1", 4), ("R1", 9), ("R1", 13)]);
}

#[test]
fn r1_exempts_bench_crate_test_paths_and_test_regions() {
    assert!(scan_source("crates/bench/src/fixture.rs", R1_VIOLATION).is_empty());
    assert!(scan_source("crates/core/tests/fixture.rs", R1_VIOLATION).is_empty());
    assert!(scan_source("crates/core/src/fixture.rs", R1_CLEAN).is_empty());
}

#[test]
fn r2_flags_default_hasher_types_and_ctors() {
    let f = scan_source("crates/context/src/fixture.rs", R2_VIOLATION);
    assert_eq!(
        coords(&f),
        vec![("R2", 4), ("R2", 5), ("R2", 11), ("R2", 12)]
    );
}

#[test]
fn r2_accepts_explicit_hashers_and_non_sim_crates() {
    assert!(scan_source("crates/context/src/fixture.rs", R2_CLEAN).is_empty());
    // mdlint itself is not sim-visible; R2 does not apply there.
    assert!(scan_source("crates/mdlint/src/fixture.rs", R2_VIOLATION).is_empty());
}

#[test]
fn r3_flags_unwrap_expect_and_panicking_macros() {
    let f = scan_source("crates/agent/src/fixture.rs", R3_VIOLATION);
    assert_eq!(
        coords(&f),
        vec![("R3", 2), ("R3", 6), ("R3", 10), ("R3", 14)]
    );
}

#[test]
fn r3_spares_expect_token_should_panic_and_tests() {
    assert!(scan_source("crates/agent/src/fixture.rs", R3_CLEAN).is_empty());
    assert!(scan_source("crates/agent/tests/fixture.rs", R3_VIOLATION).is_empty());
}

#[test]
fn r4_flags_confined_collector_internals_outside_their_modules() {
    let f = scan_source("crates/core/src/fixture.rs", R4_VIOLATION);
    assert_eq!(
        coords(&f),
        vec![("R4", 2), ("R4", 7), ("R4", 8), ("R4", 12), ("R4", 13)]
    );
    assert!(scan_source("crates/core/src/fixture.rs", R4_CLEAN).is_empty());
}

#[test]
fn r4_sanctions_each_internal_only_in_its_own_module() {
    // Inside telemetry.rs the sampler internals are legal, but the SLO
    // internals (lines 12–13) are still foreign — and vice versa.
    let f = scan_source("crates/simnet/src/telemetry.rs", R4_VIOLATION);
    assert_eq!(coords(&f), vec![("R4", 12), ("R4", 13)]);
    let f = scan_source("crates/simnet/src/slo.rs", R4_VIOLATION);
    assert_eq!(coords(&f), vec![("R4", 2), ("R4", 7), ("R4", 8)]);
}

#[test]
fn r6_flags_layer_concern_idents_outside_the_layers_dir() {
    let f = scan_source("crates/core/src/middleware.rs", R6_VIOLATION);
    assert_eq!(
        coords(&f),
        vec![("R6", 2), ("R6", 3), ("R6", 7), ("R6", 8), ("R6", 13)]
    );
    // Tests are not exempt: they drive the public lifecycle.
    let f = scan_source("crates/core/tests/fixture.rs", R6_VIOLATION);
    assert_eq!(coords(&f).len(), 5);
    assert!(scan_source("crates/core/src/middleware.rs", R6_CLEAN).is_empty());
}

#[test]
fn r6_sanctions_concern_idents_anywhere_under_layers() {
    assert!(scan_source("crates/core/src/layers/fault_retry.rs", R6_VIOLATION).is_empty());
    assert!(scan_source("crates/core/src/layers/mod.rs", R6_VIOLATION).is_empty());
}

const FIXTURE_SPEC: EnumSpec = EnumSpec {
    path: "crates/core/src/fixture_wire.rs",
    enum_name: "WireMsg",
    sites: &["encode", "decode"],
};

#[test]
fn r5_flags_variant_missing_from_decode() {
    let f = check_enum_spec(&FIXTURE_SPEC, R5_VIOLATION);
    assert_eq!(coords(&f), vec![("R5", 1)]);
    assert_eq!(f[0].snippet, "variant `WireMsg::Bye` missing from `decode`");
}

#[test]
fn r5_accepts_synchronized_enum() {
    assert!(check_enum_spec(&FIXTURE_SPEC, R5_CLEAN).is_empty());
}

#[test]
fn r5_reports_missing_enum_and_missing_site() {
    let f = check_enum_spec(&FIXTURE_SPEC, "pub struct NotAnEnum;");
    assert_eq!(f.len(), 1);
    assert!(f[0].snippet.contains("not found"));

    let gone_site = R5_CLEAN.replace("fn decode", "fn decode_v2");
    let f = check_enum_spec(&FIXTURE_SPEC, &gone_site);
    assert!(f
        .iter()
        .any(|f| f.snippet.contains("site fn `decode` not found")));
}

#[test]
fn allowlist_suppresses_matching_findings_only() {
    let mut findings = scan_source("crates/agent/src/fixture.rs", R3_VIOLATION);
    let entries = parse_allowlist(
        "[[allow]]\n\
         rule = \"R3\"\n\
         path = \"crates/agent/src/fixture.rs\"\n\
         line = 10\n\
         reason = \"demonstration entry\"\n",
    )
    .unwrap();
    apply_allowlist(&mut findings, &entries);
    let allowed: Vec<u32> = findings
        .iter()
        .filter(|f| f.allowed)
        .map(|f| f.line)
        .collect();
    let unallowed: Vec<u32> = findings
        .iter()
        .filter(|f| !f.allowed)
        .map(|f| f.line)
        .collect();
    assert_eq!(allowed, vec![10]);
    assert_eq!(unallowed, vec![2, 6, 14]);
    assert_eq!(
        findings
            .iter()
            .find(|f| f.allowed)
            .unwrap()
            .reason
            .as_deref(),
        Some("demonstration entry")
    );
}

#[test]
fn allowlist_entry_without_reason_is_rejected() {
    let err = parse_allowlist("[[allow]]\nrule = \"R3\"\npath = \"crates/agent/src/fixture.rs\"\n")
        .unwrap_err();
    assert!(err.contains("reason"), "{err}");

    let err =
        parse_allowlist("[[allow]]\nrule = \"R42\"\npath = \"x\"\nreason = \"y\"\n").unwrap_err();
    assert!(err.contains("unknown rule"), "{err}");

    // STALE marks rotted allow entries; it cannot itself be allowlisted.
    let err =
        parse_allowlist("[[allow]]\nrule = \"STALE\"\npath = \"x\"\nreason = \"y\"\n").unwrap_err();
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn report_is_valid_shape_and_sorted_fields() {
    let mut findings = scan_source("crates/agent/src/fixture.rs", R3_VIOLATION);
    let entries = parse_allowlist(
        "[[allow]]\nrule = \"R3\"\npath = \"crates/agent/src/fixture.rs\"\nreason = \"all of it\"\n",
    )
    .unwrap();
    apply_allowlist(&mut findings, &entries);
    let json = render_report(&findings, &[]);
    assert!(json.contains("\"schema\": \"mdlint-report-v3\""));
    assert!(json.contains(
        "\"counts\": {\"total\": 4, \"allowed\": 4, \"unallowed\": 0, \"unreferenced\": 0}"
    ));
    assert!(json.contains("\"rule\": \"R3\""));
    assert!(json.contains("\"reason\": \"all of it\""));
    // Snippets embed quotes from source; they must be escaped.
    assert!(json.contains("s.parse().expect(\\\"valid port\\\")"));
}

#[test]
fn empty_report_renders_empty_array() {
    let json = render_report(&[], &[]);
    assert!(json.contains("\"findings\": []"));
    assert!(json.contains("\"total\": 0"));
}

// ---------------------------------------------------------------------------
// Lexer hardening
// ---------------------------------------------------------------------------

#[test]
fn lexer_elides_raw_and_byte_string_contents() {
    let src = r####"
fn f() -> usize {
    let a = r#"x.unwrap() panic!("boom")"#;
    let b = b"panic!";
    let c = r"todo!()";
    a.len() + b.len() + c.len()
}
"####;
    assert!(scan_source("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn lexer_tracks_nested_block_comments() {
    // If nesting were mishandled, the comment would end at the inner `*/`
    // and the trailing tokens would lex as code; and if comment recovery
    // were off, `g`'s real unwrap would be mis-lined.
    let src = "\
fn f(v: &Option<u32>) {
    /* outer /* inner x.unwrap() */ still comment panic!( */
    let _ = v;
}
fn g(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    let f = scan_source("crates/core/src/fixture.rs", src);
    assert_eq!(coords(&f), vec![("R3", 6)]);
}

#[test]
fn lexer_keeps_line_numbers_across_multiline_strings() {
    let src = "\
fn f() -> String {
    let s = \"line one
line two
line three\";
    s.to_owned()
}
fn g(v: Option<u32>) -> u32 {
    v.expect(\"present\")
}
";
    let f = scan_source("crates/core/src/fixture.rs", src);
    assert_eq!(coords(&f), vec![("R3", 8)]);
}
