//! Machine-readable `LINT_report.json` writer.
//!
//! Output is deterministic: findings are sorted by (file, line, rule)
//! before this module sees them, and keys are emitted in a fixed order.

use mdagent_json::Value;

use crate::Finding;

/// Renders the report document. The findings must already be sorted.
pub fn render_report(findings: &[Finding]) -> String {
    let allowed = findings.iter().filter(|f| f.allowed).count();
    let counts = Value::object([
        ("total", findings.len().into()),
        ("allowed", allowed.into()),
        ("unallowed", (findings.len() - allowed).into()),
    ]);
    // v4: the census is rule R11, one finding per unreferenced item.
    Value::object([
        ("schema", "mdlint-report-v4".into()),
        ("counts", counts),
        ("findings", Value::array(findings.iter().map(finding))),
    ])
    .pretty()
}

fn finding(f: &Finding) -> Value {
    let mut pairs = vec![
        ("rule", Value::from(f.rule)),
        ("file", f.file.as_str().into()),
        ("line", f.line.into()),
        ("snippet", f.snippet.as_str().into()),
        ("allowed", f.allowed.into()),
    ];
    if let Some(reason) = &f.reason {
        pairs.push(("reason", reason.as_str().into()));
    }
    // v2: graph rules attach the entry-to-site call path.
    if !f.call_path.is_empty() {
        let hops = f.call_path.iter().map(String::as_str);
        pairs.push(("call_path", Value::array(hops)));
    }
    Value::object(pairs)
}
