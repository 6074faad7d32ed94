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
