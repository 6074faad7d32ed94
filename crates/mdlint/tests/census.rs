//! Fixture tests for the census of `pub` items no non-test code names.

use mdlint::census::unreferenced;

fn files(set: &[(&str, &str)]) -> Vec<(String, String)> {
    set.iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn listed(set: &[(&str, &str)]) -> Vec<String> {
    unreferenced(&files(set))
        .into_iter()
        .map(|u| u.name)
        .collect()
}

const LIB: &str = "crates/demo/src/lib.rs";

#[test]
fn a_pub_fn_nothing_names_is_listed_with_its_place() {
    let src = "pub fn live() {}\n\npub fn dead() {}\n";
    let main = "fn main() { demo::live(); }\n";
    let found = unreferenced(&files(&[(LIB, src), ("crates/demo/src/main.rs", main)]));
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(
        (
            found[0].file.as_str(),
            found[0].line,
            found[0].name.as_str()
        ),
        (LIB, 3, "dead")
    );
}

#[test]
fn every_item_kind_is_counted() {
    let src = "pub struct S;\npub enum E {}\npub trait T {}\npub const C: u8 = 0;\n\
               pub static G: u8 = 0;\npub type A = u8;\npub const fn f() {}\n\
               pub unsafe fn g() {}\n";
    assert_eq!(
        listed(&[(LIB, src)]),
        ["S", "E", "T", "C", "G", "A", "f", "g"]
    );
}

#[test]
fn names_in_test_code_are_not_references() {
    let src = "pub fn only_tested() {}\n\
               #[cfg(test)]\nmod tests { #[test] fn t() { super::only_tested(); } }\n\
               pub fn only_integration_tested() {}\n";
    // A helper outside any `#[test]` item: only its `tests/` path marks it.
    let it = "fn helper() { demo::only_integration_tested(); }\n#[test] fn t() { helper(); }\n";
    assert_eq!(
        listed(&[(LIB, src), ("crates/demo/tests/it.rs", it)]),
        ["only_tested", "only_integration_tested"]
    );
}

#[test]
fn examples_benches_and_bench_city_are_references() {
    let src = "pub fn in_example() {}\npub fn in_bench() {}\npub fn in_city() {}\n";
    let set = [
        (LIB, src),
        ("examples/tour.rs", "fn main() { demo::in_example(); }\n"),
        (
            "crates/demo/benches/b.rs",
            "fn main() { demo::in_bench(); }\n",
        ),
        (
            "bench-city/benches/main.rs",
            "fn main() { demo::in_city(); }\n",
        ),
    ];
    assert!(listed(&set).is_empty());
}

#[test]
fn a_pub_use_reexport_is_not_a_reference() {
    let set = [
        (LIB, "mod inner;\npub use inner::{exported, used};\n"),
        (
            "crates/demo/src/inner.rs",
            "pub fn exported() {}\npub fn used() {}\n",
        ),
        ("examples/e.rs", "fn main() { demo::used(); }\n"),
    ];
    assert_eq!(listed(&set), ["exported"]);
}

#[test]
fn crate_visible_items_are_never_listed() {
    let src = "pub(crate) fn a() {}\npub(super) struct B;\npub(in crate::x) const C: u8 = 0;\n";
    assert!(listed(&[(LIB, src)]).is_empty());
}

#[test]
fn a_name_shared_with_a_live_item_is_not_listed() {
    let set = [
        (LIB, "pub struct A;\nimpl A { pub fn run(&self) {} }\n"),
        (
            "crates/other/src/lib.rs",
            "pub struct B;\nimpl B { pub fn run(&self) {} }\npub fn make() -> B { B }\n",
        ),
        ("examples/e.rs", "fn main() { other::make().run(); }\n"),
    ];
    // `A` is dead; its `run` shares a name with `B::run` and is not listed.
    assert_eq!(listed(&set), ["A"]);
}

#[test]
fn a_type_named_only_in_its_own_impls_is_listed() {
    let src = "pub struct Own { n: u8 }\n\
               impl Own { pub fn new() -> Own { Own { n: 0 } } }\n\
               impl Default for Own { fn default() -> Self { Own::new() } }\n";
    assert_eq!(listed(&[(LIB, src)]), ["Own"]);
}

#[test]
fn binaries_declare_nothing() {
    let set = [
        (
            "crates/demo/src/main.rs",
            "pub fn helper() {}\nfn main() {}\n",
        ),
        (
            "crates/demo/src/bin/tool.rs",
            "pub fn other() {}\nfn main() {}\n",
        ),
        ("crates/demo/src/domain.rs", "pub fn library() {}\n"),
    ];
    assert_eq!(listed(&set), ["library"]);
}

// ---------------------------------------------------------------------------
// R11: the census as a gating rule
// ---------------------------------------------------------------------------

use mdlint::allow::parse_allowlist;
use mdlint::{apply_allowlist, census, stale_entries, Finding};

const R11_LIB: &str = include_str!("fixtures/r11_lib.rs");
const R11_MAIN: &str = include_str!("fixtures/r11_main.rs");

/// R11 over the fixture crate, with `lib` as its library source and the
/// allowlist applied; returns the findings and the stale entries.
fn r11(lib: &str, main: &str, allow: &str) -> (Vec<Finding>, Vec<Finding>) {
    let set = files(&[(LIB, lib), ("crates/demo/src/main.rs", main)]);
    let entries = parse_allowlist(allow).expect("allowlist parses");
    let mut findings = census::findings(&set);
    apply_allowlist(&mut findings, &entries);
    let stale = stale_entries(&findings, &entries);
    (findings, stale)
}

const KEEP_DEAD: &str = "[[allow]]\nrule = \"R11\"\npath = \"crates/demo/src/lib.rs\"\n\
                         item = \"dead\"\nreason = \"kept for a stated reason\"\n";

#[test]
fn a_fresh_dead_pub_fn_is_an_unallowed_r11_finding() {
    let (findings, stale) = r11(R11_LIB, R11_MAIN, "");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.file.as_str(), f.line), ("R11", LIB, 7));
    assert_eq!(f.snippet, "dead");
    assert!(!f.allowed);
    assert!(stale.is_empty());
}

#[test]
fn an_item_entry_with_a_reason_keeps_the_item() {
    let (findings, stale) = r11(R11_LIB, R11_MAIN, KEEP_DEAD);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].allowed);
    assert_eq!(
        findings[0].reason.as_deref(),
        Some("kept for a stated reason")
    );
    assert!(stale.is_empty());
}

#[test]
fn lines_inserted_above_a_kept_item_keep_it_allowed() {
    let shifted = format!("// a new header line\n\npub fn also_live() {{}}\n{R11_LIB}");
    let main = R11_MAIN.replace("demo::live()", "{ demo::also_live(); demo::live() }");
    let (findings, stale) = r11(&shifted, &main, KEEP_DEAD);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 10, "the item moved down three lines");
    assert!(findings[0].allowed);
    assert!(stale.is_empty());
}

#[test]
fn an_entry_whose_item_gained_a_caller_is_stale() {
    let main = R11_MAIN.replace("demo::live()", "demo::live() + demo::dead()");
    let (findings, stale) = r11(R11_LIB, &main, KEEP_DEAD);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "STALE");
    assert!(
        stale[0].snippet.contains("item dead"),
        "{}",
        stale[0].snippet
    );
}

#[test]
fn an_item_key_on_a_non_r11_entry_is_rejected() {
    let text = "[[allow]]\nrule = \"R3\"\npath = \"crates/demo/src/lib.rs\"\n\
                item = \"dead\"\nreason = \"no\"\n";
    let err = parse_allowlist(text).unwrap_err();
    assert!(err.contains("item"), "{err}");
    // An R11 entry must name its item; a line does not do.
    let pinned = "[[allow]]\nrule = \"R11\"\npath = \"crates/demo/src/lib.rs\"\n\
                  line = 7\nreason = \"no\"\n";
    assert!(parse_allowlist(pinned).is_err());
}
