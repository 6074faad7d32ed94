//! Tier-1 lint gate: the whole workspace must be mdlint-clean (modulo the
//! justified entries in `lint-allow.toml`). This is the same scan `cargo
//! run -p mdlint` performs in CI, wired into plain `cargo test` so a
//! violation fails the default test run too. The committed
//! `LINT_report.json` must be this scan's report, and well formed; that
//! pins the census of unreferenced `pub` items, so a new one shows up as
//! a diff of the report.

use std::path::Path;

use mdagent_json::Value;

#[test]
fn workspace_is_mdlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = mdlint::scan_workspace(root).expect("workspace scan succeeds");
    assert!(result.files_scanned > 50, "walker found too few files");
    let unallowed: Vec<String> = result
        .unallowed()
        .map(|f| format!("[{}] {}:{} {}", f.rule, f.file, f.line, f.snippet))
        .collect();
    assert!(
        unallowed.is_empty(),
        "mdlint found {} unallowed finding(s):\n{}\n\
         Fix them or add a justified entry to lint-allow.toml.",
        unallowed.len(),
        unallowed.join("\n")
    );

    let report = mdlint::report::render_report(&result.findings, &result.unreferenced);
    let committed = std::fs::read_to_string(root.join("LINT_report.json"))
        .expect("LINT_report.json is committed");
    assert!(
        committed == report,
        "LINT_report.json is stale: regenerate it with `cargo run -p mdlint`"
    );
    check_report(&mdagent_json::parse(&report).expect("the report parses"));
}

/// The report's schema and invariants, as CI consumers read them.
fn check_report(doc: &Value) {
    assert_eq!(doc["schema"].as_str(), Some("mdlint-report-v3"));
    let findings = doc["findings"].as_arr().expect("findings");
    let count = |key: &str| doc["counts"][key].as_u64().expect(key);
    assert_eq!(count("total"), findings.len() as u64);
    assert_eq!(count("allowed") + count("unallowed"), count("total"));
    assert_eq!(count("unallowed"), 0);
    let rules = [
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "STALE",
    ];
    for f in findings {
        let rule = f["rule"].as_str().expect("rule");
        assert!(rules.contains(&rule), "{f:?}");
        assert!(f["line"].as_u64() >= Some(1), "{f:?}");
        assert!(!f["file"].as_str().unwrap_or_default().is_empty(), "{f:?}");
        // Every surviving finding is an allowlisted, justified one.
        assert_eq!(f["allowed"].as_bool(), Some(true), "{f:?}");
        assert!(f["reason"].as_str().is_some(), "{f:?}");
        // Graph findings carry the call path from their root.
        if rule == "R7" {
            let path = f["call_path"].as_arr().unwrap_or_default();
            assert!(path.len() >= 2, "{f:?}");
            assert!(
                path.iter()
                    .all(|hop| hop.as_str().is_some_and(|h| h.contains(':'))),
                "{f:?}"
            );
        }
    }
    let unreferenced = doc["unreferenced"].as_arr().expect("unreferenced");
    assert_eq!(count("unreferenced"), unreferenced.len() as u64);
    let keys: Vec<(&str, u64, &str)> = unreferenced
        .iter()
        .map(|u| {
            let file = u["file"].as_str().expect("file");
            assert!(
                file.starts_with("crates/") && file.contains("/src/"),
                "{u:?}"
            );
            let name = u["name"].as_str().expect("name");
            (file, u["line"].as_u64().expect("line"), name)
        })
        .collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "census is sorted");
    // The R7/R8 annotations must actually be armed: an empty graph pass
    // would also report zero unallowed findings.
    for rule in ["R7", "R8"] {
        assert!(
            findings.iter().any(|f| f["rule"].as_str() == Some(rule)),
            "no {rule} finding"
        );
    }
}
