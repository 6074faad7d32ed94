//! The `figures` command line fails loudly: it refuses arguments it does
//! not know before running or writing anything, and exits non-zero when an
//! artifact cannot be written.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `figures` in the test's scratch directory, so a run that should
/// not have happened leaves no artifact in the source tree.
fn figures(args: &[&str]) -> Output {
    figures_in(Path::new(env!("CARGO_TARGET_TMPDIR")), args)
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
