//! # mdlint — workspace-local static analysis for the MDAgent reproduction
//!
//! The MDAgent middleware is evaluated by a *deterministic* discrete-event
//! simulation: identical seeds must produce bit-identical traces, metrics
//! and BENCH artifacts across runs, machines and refactors. The Rust
//! compiler cannot see that contract, so this crate enforces it (plus a few
//! robustness invariants) as a lint pass over the whole workspace — R1–R6
//! lexically on the token stream, R7–R10 structurally on a workspace call
//! graph and wire-schema model built by [`parser`], [`callgraph`] and
//! [`wire_schema`]:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | R1   | no wall clocks / OS entropy / `std::env` outside bench+tests |
//! | R2   | no default-hasher `HashMap`/`HashSet` in sim-visible crates |
//! | R3   | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` outside tests |
//! | R4   | raw `open_span` only inside the telemetry module |
//! | R5   | tracked enums stay in sync with hand-written encode/decode/match fns |
//! | R6   | migration concern internals only inside `crates/core/src/layers/` |
//! | R7   | no panic op transitively reachable from `// mdlint::entry` fns |
//! | R8   | no allocation reachable from `// mdlint::hot` fns |
//! | R9   | layer impls never re-enter the `Middleware` migration lifecycle |
//! | R10  | wire field order/width matches the committed `WIRE_schema.json` |
//! | STALE| every `lint-allow.toml` entry still covers at least one finding |
//!
//! Run it two ways:
//!
//! * `cargo run -p mdlint` — writes `LINT_report.json` at the workspace
//!   root and exits nonzero on unallowed findings (CI gate); add
//!   `--write-wire-schema` to regenerate the wire lock instead;
//! * the root package's `tests/lint_gate.rs` calls [`scan_workspace`] so
//!   plain `cargo test` fails on violations too (tier-1 gate).
//!
//! Justified exceptions live in `lint-allow.toml` (see [`allow`]); every
//! entry must carry a `reason`, and an entry that no longer matches any
//! finding is itself reported (rule `STALE`) so suppressions cannot
//! outlive the code they excused.

#![forbid(unsafe_code)]

pub mod allow;
pub mod callgraph;
pub mod census;
pub mod graph_rules;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod wire_schema;

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`R1`..`R10`, or `STALE` for dead allowlist entries).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Trimmed source line (or a synthesized message for R5/R10/STALE).
    pub snippet: String,
    /// True when covered by a `lint-allow.toml` entry.
    pub allowed: bool,
    /// The allowlist justification, when allowed.
    pub reason: Option<String>,
    /// For graph rules (R7/R8/R9): the call path from the root (entry /
    /// hot fn / layer fn) to the offending site, `file:line label` hops.
    pub call_path: Vec<String>,
}

/// Result of a whole-workspace scan.
#[derive(Debug)]
pub struct ScanResult {
    /// All findings, sorted by (file, line, rule), allowlist applied.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The census: `pub` items no non-test code names (see [`census`]).
    pub unreferenced: Vec<census::Unreferenced>,
}

impl ScanResult {
    /// Findings not covered by the allowlist — these fail the build.
    pub fn unallowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }
}

/// Directory names never descended into. `fixtures` keeps mdlint's own
/// deliberately-violating test inputs out of the workspace scan; the
/// root `examples/` directory is read for the census alone.
const SKIP_DIRS: &[&str] = &[
    ".git", "target", "vendor", "fixtures", "examples", ".github",
];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    // Sorted traversal keeps the report byte-stable across filesystems.
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_unix(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// True when a file participates in the call graph and wire extraction:
/// the `src/` tree of a sim-visible crate. Tooling (mdlint itself), the
/// bench harness and `tests/`/`benches/` scaffolding stay out so
/// reachability never crosses into non-sim code.
fn graph_relevant(rel: &str) -> bool {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return false;
    };
    rules::SIM_VISIBLE_CRATES.contains(&krate) && tail.starts_with("src/")
}

/// Runs the graph rules (R7–R9) over an explicit `(rel_path, source)`
/// file set — the workspace scan and the fixture tests share this path.
/// Callers are responsible for only passing files that should be in the
/// graph (see `graph_relevant` for the workspace policy).
pub fn scan_graph_sources(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<parser::ParsedFile> = files
        .iter()
        .map(|(p, s)| parser::parse_file(p, s))
        .collect();
    let graph = callgraph::CallGraph::build(&parsed);
    graph_rules::run_graph_rules(&parsed, &graph)
}

/// Reads `paths` as `(workspace-relative path, source)` pairs.
fn read_sources(root: &Path, paths: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    paths
        .iter()
        .map(|path| {
            let source =
                fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            Ok((rel_unix(root, path), source))
        })
        .collect()
}

/// Scans the workspace rooted at `root`: R1–R4 lexically on every `.rs`
/// file, R5 on the tracked enums, R7–R9 on the sim-visible call graph,
/// R10 against the committed wire lock, then applies
/// `<root>/lint-allow.toml` and reports stale entries. The census runs
/// over the same files plus `examples/`.
pub fn scan_workspace(root: &Path) -> Result<ScanResult, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut sources = read_sources(root, &files)?;
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, source) in &sources {
        findings.extend(rules::scan_source(rel, source));
    }
    for spec in rules::R5_TRACKED {
        let path = root.join(spec.path);
        match fs::read_to_string(&path) {
            Ok(source) => findings.extend(rules::check_enum_spec(spec, &source)),
            Err(_) => findings.push(Finding {
                rule: "R5",
                file: spec.path.to_string(),
                line: 1,
                snippet: format!("tracked file for enum `{}` is missing", spec.enum_name),
                allowed: false,
                reason: None,
                call_path: Vec::new(),
            }),
        }
    }

    // Graph rules and wire lock share one parse of the sim-visible files.
    let parsed: Vec<parser::ParsedFile> = sources
        .iter()
        .filter(|(rel, _)| graph_relevant(rel))
        .map(|(p, s)| parser::parse_file(p, s))
        .collect();
    let graph = callgraph::CallGraph::build(&parsed);
    findings.extend(graph_rules::run_graph_rules(&parsed, &graph));
    let wire_types = wire_schema::extract(&parsed);
    let lock_text = fs::read_to_string(root.join(wire_schema::LOCK_FILE)).ok();
    findings.extend(wire_schema::check(lock_text.as_deref(), &wire_types));

    let allow_path = root.join("lint-allow.toml");
    let entries = if allow_path.exists() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        allow::parse_allowlist(&text)?
    } else {
        Vec::new()
    };
    apply_allowlist(&mut findings, &entries);
    let stale = stale_entries(&findings, &entries);
    findings.extend(stale);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let mut examples = Vec::new();
    collect_rs_files(&root.join("examples"), &mut examples)?;
    sources.extend(read_sources(root, &examples)?);
    Ok(ScanResult {
        findings,
        files_scanned: files.len(),
        unreferenced: census::unreferenced(&sources),
    })
}

/// Marks findings covered by allowlist entries.
pub fn apply_allowlist(findings: &mut [Finding], entries: &[allow::AllowEntry]) {
    for f in findings.iter_mut() {
        if let Some(e) = entries.iter().find(|e| e.covers(f.rule, &f.file, f.line)) {
            f.allowed = true;
            f.reason = Some(e.reason.clone());
        }
    }
}

/// One `STALE` finding per allowlist entry that covers no finding at all —
/// dead suppressions fail the build until removed. Coverage is checked
/// entry-by-entry (not via the winner recorded by [`apply_allowlist`]), so
/// overlapping entries are each judged on their own reach.
pub fn stale_entries(findings: &[Finding], entries: &[allow::AllowEntry]) -> Vec<Finding> {
    entries
        .iter()
        .filter(|e| !findings.iter().any(|f| e.covers(f.rule, &f.file, f.line)))
        .map(|e| Finding {
            rule: "STALE",
            file: "lint-allow.toml".to_string(),
            line: e.toml_line,
            snippet: format!(
                "allow entry ({} {}{}) matches no finding — remove it",
                e.rule,
                e.path,
                e.line.map(|l| format!(":{l}")).unwrap_or_default()
            ),
            allowed: false,
            reason: None,
            call_path: Vec::new(),
        })
        .collect()
}

/// Regenerates `WIRE_schema.json` at the workspace root from source.
/// Returns the number of locked wire types.
pub fn write_wire_schema(root: &Path) -> Result<usize, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut parsed = Vec::new();
    for path in &files {
        let rel = rel_unix(root, path);
        if !graph_relevant(&rel) {
            continue;
        }
        let source =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        parsed.push(parser::parse_file(&rel, &source));
    }
    let types = wire_schema::extract(&parsed);
    let lock_path = root.join(wire_schema::LOCK_FILE);
    fs::write(&lock_path, wire_schema::render(&types))
        .map_err(|e| format!("write {}: {e}", lock_path.display()))?;
    Ok(types.len())
}

/// Full CLI run: scan, write `LINT_report.json` at the root, print a
/// summary, and return the number of unallowed findings.
pub fn run(root: &Path) -> Result<usize, String> {
    let result = scan_workspace(root)?;
    let report = report::render_report(&result.findings, &result.unreferenced);
    let report_path = root.join("LINT_report.json");
    fs::write(&report_path, &report)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    let unallowed: Vec<&Finding> = result.unallowed().collect();
    println!(
        "mdlint: scanned {} files — {} finding(s), {} allowed, {} unallowed",
        result.files_scanned,
        result.findings.len(),
        result.findings.len() - unallowed.len(),
        unallowed.len()
    );
    println!(
        "mdlint: {} public items no non-test code names",
        result.unreferenced.len()
    );
    for f in &unallowed {
        println!("  [{}] {}:{} {}", f.rule, f.file, f.line, f.snippet);
        for hop in &f.call_path {
            println!("      via {hop}");
        }
    }
    Ok(unallowed.len())
}
