//! The committed artifacts are what the code emits.
//!
//! The simulated-clock artifacts must equal a fresh run byte for byte; a
//! change that moves one regenerates it with `figures` and commits it in
//! the same change. That includes `FIGURES.txt`, the printed Fig. 8–10
//! and ablation tables (`figures fig8 fig9 fig10 ablations > FIGURES.txt`).
//! The wall-clock artifacts cannot be rerun here, so they only have to be
//! in the one writer's layout.

use std::path::{Path, PathBuf};

use mdagent_bench::{
    bench_faults_json, bench_migration_json, obs_report_json, trace_scenario, TRACE_SCENARIOS,
};

fn committed(name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `assert_eq!` would print two multi-kilobyte documents.
fn assert_current(name: &str, emitted: &str) {
    assert!(
        committed(name) == emitted,
        "{name} is stale: regenerate it with `figures` and commit it"
    );
}

#[test]
fn simulated_clock_artifacts_regenerate_byte_for_byte() {
    for scenario in TRACE_SCENARIOS {
        let art = trace_scenario(scenario).expect("known scenario");
        assert_current(&format!("TRACE_{scenario}.jsonl"), &art.jsonl);
        assert_current(&format!("TRACE_{scenario}.chrome.json"), &art.chrome);
    }
    assert_current("BENCH_migration.json", &bench_migration_json());
    assert_current("BENCH_faults.json", &bench_faults_json());
    assert_current("OBS_report.json", &obs_report_json());
}

#[test]
fn figure_tables_regenerate_byte_for_byte() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig8", "fig9", "fig10", "ablations"])
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "figures failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    assert_current("FIGURES.txt", &stdout);
}

#[test]
fn wall_clock_artifacts_are_in_the_writers_layout() {
    for name in ["BENCH_reasoning.json", "BENCH_scale.json"] {
        let text = committed(name);
        let doc = mdagent_json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(doc.pretty() == text, "{name} is not in the pretty() layout");
    }
}
