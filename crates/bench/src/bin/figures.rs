//! Prints every reproduced figure of the paper plus the ablations.
//!
//! ```text
//! cargo run -p mdagent-bench --bin figures                    # everything
//! cargo run -p mdagent-bench --bin figures -- fig8            # one figure
//! cargo run -p mdagent-bench --bin figures -- trace follow-me # span export (repeatable)
//! cargo run -p mdagent-bench --bin figures -- report          # OBS_report.json
//! ```
//!
//! An unknown argument or trace scenario exits with status 2 before
//! anything runs; a failed artifact write exits with status 1.

use std::process::ExitCode;

use mdagent_bench::{
    ablation_clone_dispatch, ablation_matching, ablation_prestaging, ablation_reasoning,
    bench_faults_json, bench_migration_json, bench_reasoning_json, bench_scale_json,
    fig10_comparative, fig8_adaptive, fig9_static, obs_report_json, trace_scenario,
    TRACE_SCENARIOS,
};

/// Arguments that pick what to run. `trace` takes the scenario name that
/// follows it, and may be given once per scenario.
const SELECTORS: [&str; 10] = [
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "trace",
    "report",
    "bench-reasoning",
    "bench-migration",
    "bench-faults",
    "bench-scale",
];

/// Modifiers, not selectors: `--with-naive` lifts the naive reference
/// engine's size gate for `bench-reasoning`; `--smoke` shrinks
/// `bench-scale` to its CI slice.
const FLAGS: [&str; 2] = ["--with-naive", "--smoke"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let with_naive = args.iter().any(|f| f == "--with-naive");
    let smoke = args.iter().any(|f| f == "--smoke");
    // `trace <scenario>` pairs come out of the filter; the rest are
    // selectors.
    let (mut traces, mut filter) = (Vec::new(), Vec::new());
    let mut words = args
        .iter()
        .map(String::as_str)
        .filter(|f| !FLAGS.contains(f));
    while let Some(word) = words.next() {
        match word {
            "trace" => traces.push(words.next().unwrap_or("follow-me")),
            _ => filter.push(word),
        }
    }
    if let Some(bad) = filter.iter().find(|f| !SELECTORS.contains(f)) {
        eprintln!("unknown argument {bad:?}; selectors: {SELECTORS:?}; flags: {FLAGS:?}");
        return ExitCode::from(2);
    }
    if let Some(bad) = traces.iter().find(|s| !TRACE_SCENARIOS.contains(s)) {
        eprintln!("unknown trace scenario {bad:?}; known: {TRACE_SCENARIOS:?}");
        return ExitCode::from(2);
    }
    let want = |key: &str| filter.is_empty() || filter.contains(&key);

    // Scenario trace export: writes TRACE_<scenario>.jsonl plus a Chrome
    // trace-event document loadable in Perfetto / chrome://tracing.
    let mut written = true;
    for artifacts in traces.iter().filter_map(|s| trace_scenario(s)) {
        let scenario = &artifacts.scenario;
        written &= write_artifact(&format!("TRACE_{scenario}.jsonl"), &artifacts.jsonl);
        written &= write_artifact(&format!("TRACE_{scenario}.chrome.json"), &artifacts.chrome);
        println!("{}", artifacts.summary);
    }
    if !traces.is_empty() && filter.is_empty() {
        return exit_code(written);
    }

    // JSON artifacts, each behind its own selector. The wall-clock ones
    // (`bench-reasoning`, `bench-scale`) are explicit opt-in only: the
    // naive reasoning reference runs only at the small sizes unless
    // --with-naive is passed (chain-512 alone adds ~400 s), and `--smoke`
    // gives the fast CI slice of the churn runs.
    let artifacts: [(&str, &str, &dyn Fn() -> String); 5] = [
        ("bench-reasoning", "BENCH_reasoning.json", &|| {
            bench_reasoning_json(with_naive)
        }),
        // Static vs. adaptive vs. adaptive + component cache + delta
        // snapshots, plus pipelined multi-hop transfer.
        (
            "bench-migration",
            "BENCH_migration.json",
            &bench_migration_json,
        ),
        // Completion rate, retries and rollback latency as the per-link
        // drop probability rises.
        ("bench-faults", "BENCH_faults.json", &bench_faults_json),
        // Spans + metrics + SLO state over the trace scenarios plus a lossy
        // churn run.
        ("report", "OBS_report.json", &obs_report_json),
        // Queue comparison + diurnal churn runs (wall-clock + RSS).
        ("bench-scale", "BENCH_scale.json", &|| {
            bench_scale_json(smoke)
        }),
    ];
    for (selector, path, json) in artifacts {
        if !filter.contains(&selector) {
            continue;
        }
        let json = json();
        print!("{json}");
        written &= write_artifact(path, &json);
        if filter.len() == 1 {
            return exit_code(written);
        }
    }

    println!("MDAgent reproduction — evaluation figures");
    println!("(simulated milliseconds on the calibrated 10 Mbps / P4-class testbed)\n");

    if want("fig8") {
        println!("{}", fig8_adaptive());
    }
    if want("fig9") {
        println!("{}", fig9_static());
    }
    if want("fig10") {
        println!("{}", fig10_comparative());
    }
    if want("ablations") {
        println!("{}", ablation_clone_dispatch(8));
        println!("{}", ablation_reasoning(24));
        println!("{}", ablation_matching(24));
        println!("{}", ablation_prestaging());
    }
    exit_code(written)
}

/// Writes one artifact to the working directory, reporting the outcome on
/// stderr; returns whether it was written.
fn write_artifact(path: &str, body: &str) -> bool {
    match std::fs::write(path, body) {
        Ok(()) => {
            eprintln!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

fn exit_code(written: bool) -> ExitCode {
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
