//! The `figures` command line fails loudly: it refuses arguments it does
//! not know before running or writing anything, and exits non-zero when an
//! artifact cannot be written. It also drops no work: every `trace` pair
//! runs, and so do the selectors after them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `figures` in the test's scratch directory, so a run that should
/// not have happened leaves no artifact in the source tree.
fn figures(args: &[&str]) -> Output {
    figures_in(Path::new(env!("CARGO_TARGET_TMPDIR")), args)
}

/// A fresh, empty directory under the test's scratch directory.
fn empty_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn figures_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the figures binary starts")
}

#[test]
fn unknown_selector_exits_non_zero() {
    let out = figures(&["fig11"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"fig11\""));
}

#[test]
fn unknown_flag_exits_non_zero() {
    let out = figures(&["--bogus", "bench-faults"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "bench-faults did not run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"--bogus\""));
}

#[test]
fn failed_artifact_write_exits_non_zero() {
    // A directory where the artifact belongs makes the write fail.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli_write");
    std::fs::create_dir_all(dir.join("BENCH_migration.json")).unwrap();
    let out = figures_in(&dir, &["bench-migration"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write BENCH_migration.json"));
}

#[test]
fn every_trace_pair_runs_and_then_the_other_selectors() {
    let dir = empty_dir("figures_cli_traces");
    let out = figures_in(&dir, &["trace", "follow-me", "trace", "clone", "fig8"]);
    assert_eq!(out.status.code(), Some(0));
    for scenario in ["follow-me", "clone"] {
        for ext in ["jsonl", "chrome.json"] {
            let path = dir.join(format!("TRACE_{scenario}.{ext}"));
            assert!(path.is_file(), "{} written", path.display());
        }
    }
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fig. 8"));
}

#[test]
fn unknown_trace_scenario_exits_before_anything_runs() {
    let dir = empty_dir("figures_cli_bad_trace");
    let out = figures_in(&dir, &["trace", "follow-me", "trace", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"bogus\""));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing written"
    );
}
