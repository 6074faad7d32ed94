//! Prints every reproduced figure of the paper plus the ablations.
//!
//! ```text
//! cargo run -p mdagent-bench --bin figures                    # everything
//! cargo run -p mdagent-bench --bin figures -- fig8            # one figure
//! cargo run -p mdagent-bench --bin figures -- trace follow-me # span export
//! cargo run -p mdagent-bench --bin figures -- report          # OBS_report.json
//! ```
//!
//! An unknown argument exits with status 2 before anything runs; a failed
//! artifact write exits with status 1.

use std::process::ExitCode;

use mdagent_bench::{
    ablation_clone_dispatch, ablation_matching, ablation_prestaging, ablation_reasoning,
    bench_faults_json, bench_migration_json, bench_observability_json, bench_reasoning_json,
    bench_scale_json, fig10_comparative, fig8_adaptive, fig9_static, obs_report_json,
    trace_scenario, TRACE_SCENARIOS,
};

/// Arguments that pick what to run. `trace` takes the scenario name that
/// follows it.
const SELECTORS: [&str; 11] = [
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
    "bench-observability",
];

/// Modifiers, not selectors: `--with-naive` lifts the naive reference
/// engine's size gate for `bench-reasoning`; `--smoke` shrinks
/// `bench-scale` to its CI slice.
const FLAGS: [&str; 2] = ["--with-naive", "--smoke"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let with_naive = args.iter().any(|f| f == "--with-naive");
    let smoke = args.iter().any(|f| f == "--smoke");
    let filter: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|f| !FLAGS.contains(f))
        .collect();
    let unknown = filter.iter().enumerate().find(|&(i, f)| {
        let is_scenario = i > 0 && filter[i - 1] == "trace";
        !SELECTORS.contains(f) && !is_scenario
    });
    if let Some((_, bad)) = unknown {
        eprintln!("unknown argument {bad:?}; selectors: {SELECTORS:?}; flags: {FLAGS:?}");
        return ExitCode::from(2);
    }
    let want = |key: &str| filter.is_empty() || filter.contains(&key);

    // Scenario trace export: writes TRACE_<scenario>.jsonl plus a Chrome
    // trace-event document loadable in Perfetto / chrome://tracing.
    if let Some(pos) = filter.iter().position(|f| *f == "trace") {
        let scenario = filter.get(pos + 1).copied().unwrap_or("follow-me");
        let Some(artifacts) = trace_scenario(scenario) else {
            eprintln!("unknown trace scenario {scenario:?}; known: {TRACE_SCENARIOS:?}");
            return ExitCode::from(2);
        };
        let jsonl_path = format!("TRACE_{scenario}.jsonl");
        let chrome_path = format!("TRACE_{scenario}.chrome.json");
        for (path, body) in [
            (&jsonl_path, &artifacts.jsonl),
            (&chrome_path, &artifacts.chrome),
        ] {
            if !write_artifact(path, body) {
                return ExitCode::FAILURE;
            }
        }
        println!("{}", artifacts.summary);
        return ExitCode::SUCCESS;
    }

    // JSON artifacts, each behind its own selector. The wall-clock ones
    // (`bench-reasoning`, `bench-scale`, `bench-observability`) are
    // explicit opt-in only: the naive reasoning reference runs only at the
    // small sizes unless --with-naive is passed (chain-512 alone adds
    // ~400 s), and `--smoke` gives the fast CI slice of the churn runs.
    let artifacts: [(&str, &str, &dyn Fn() -> String); 6] = [
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
        // Telemetry overhead guardrail.
        (
            "bench-observability",
            "BENCH_observability.json",
            &bench_observability_json,
        ),
    ];
    let mut written = true;
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
