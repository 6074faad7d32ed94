//! Parser for `lint-allow.toml`, the checked-in allowlist of justified
//! exceptions.
//!
//! The format is a restricted TOML subset — an array of tables:
//!
//! ```toml
//! [[allow]]
//! rule = "R3"
//! path = "crates/apps/src/testkit.rs"
//! # line is optional; omit it so entries survive unrelated edits
//! reason = "test scaffolding compiled into src for reuse across crates"
//!
//! [[allow]]
//! rule = "R11"
//! path = "crates/simnet/src/trace.rs"
//! # an R11 entry names the kept item instead of a line
//! item = "check_sequence"
//! reason = "Fig. 4's event order, checked by the interaction-sequence tests"
//! ```
//!
//! Every entry **must** carry a non-empty `reason`; the parser rejects the
//! file otherwise, so un-justified suppressions cannot land. An R11
//! (unreferenced `pub` item) entry must name its `item` and pins no line,
//! so an edit above a kept item never turns its entry stale; `item` is
//! rejected on any other rule.

use crate::Finding;

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id, `R1`..`R11`.
    pub rule: String,
    /// Workspace-relative file path the exception applies to.
    pub path: String,
    /// Optional 1-based line; when absent the entry covers the whole file
    /// for that rule.
    pub line: Option<u32>,
    /// R11 only: the name of the kept `pub` item, matched against the
    /// finding's snippet instead of a line.
    pub item: Option<String>,
    /// Mandatory human justification.
    pub reason: String,
    /// Line of this entry's `[[allow]]` header in `lint-allow.toml` —
    /// where a stale-entry finding points.
    pub toml_line: u32,
}

impl AllowEntry {
    /// True when this entry covers the finding.
    pub fn covers(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.path == f.file
            && match &self.item {
                Some(item) => *item == f.snippet,
                None => self.line.is_none_or(|l| l == f.line),
            }
    }
}

fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].replace("\\\"", "\""))
    } else {
        Err(format!(
            "lint-allow.toml:{lineno}: expected a quoted string, got `{v}`"
        ))
    }
}

fn finish(entry: Option<AllowEntry>, out: &mut Vec<AllowEntry>) -> Result<(), String> {
    let Some(e) = entry else {
        return Ok(());
    };
    // Note `STALE` (the stale-entry meta rule) is deliberately not
    // accepted: a stale suppression cannot itself be suppressed.
    if !matches!(
        e.rule.as_str(),
        "R1" | "R2" | "R3" | "R4" | "R5" | "R6" | "R7" | "R8" | "R9" | "R10" | "R11"
    ) {
        return Err(format!("lint-allow.toml: unknown rule `{}`", e.rule));
    }
    // R11 entries name their item; no other rule has one.
    if (e.rule == "R11") != e.item.is_some() || (e.item.is_some() && e.line.is_some()) {
        return Err(format!(
            "lint-allow.toml:{}: an R11 entry names its `item` and no `line`; other rules take no `item`",
            e.toml_line
        ));
    }
    if e.path.is_empty() {
        return Err("lint-allow.toml: entry missing `path`".to_string());
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "lint-allow.toml: entry for {} {} has no `reason` — every exception must be justified",
            e.rule, e.path
        ));
    }
    out.push(e);
    Ok(())
}

/// Parses the allowlist text. Returns an error for malformed entries or
/// entries without a justification.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    let mut current: Option<AllowEntry> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Strip trailing comments outside strings (values here never
        // contain `#` followed by text we care about, keep it simple:
        // only treat `#` as a comment when it starts the line).
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(current.take(), &mut out)?;
            current = Some(AllowEntry {
                rule: String::new(),
                path: String::new(),
                line: None,
                item: None,
                reason: String::new(),
                toml_line: lineno as u32,
            });
            continue;
        }
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "lint-allow.toml:{lineno}: key outside of an [[allow]] table"
            ));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint-allow.toml:{lineno}: expected `key = value`"));
        };
        match key.trim() {
            "rule" => entry.rule = unquote(value, lineno)?,
            "path" => entry.path = unquote(value, lineno)?,
            "reason" => entry.reason = unquote(value, lineno)?,
            "item" => entry.item = Some(unquote(value, lineno)?),
            "line" => {
                let v = value.trim();
                entry.line = Some(v.parse::<u32>().map_err(|_| {
                    format!("lint-allow.toml:{lineno}: `line` must be an integer, got `{v}`")
                })?);
            }
            other => {
                return Err(format!(
                    "lint-allow.toml:{lineno}: unknown key `{other}` (expected rule/path/line/item/reason)"
                ));
            }
        }
    }
    finish(current.take(), &mut out)?;
    Ok(out)
}
