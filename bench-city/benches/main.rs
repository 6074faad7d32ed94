//! bench-city: the end-to-end MDAgent benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench-city/Cargo.toml -- \
//!     --workload city-day --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload is driven through the crates' public APIs, in one process
//! and one thread. The seed generates every input; the program receives
//! only those inputs. A run builds the world (timed as `setup_s`), runs the
//! timed window untraced in slices, checks the correctness gate, and
//! repeats with a fresh world until `--seconds` have passed. Every build
//! and slice is timed in CPU seconds scaled by a reference kernel run
//! beside it (see [`clock`]), which takes out the shared machine's changes
//! of speed. Set-up is the median over builds; the window's time is the sum
//! over slices of each slice's median over rounds. It then prints the seed,
//! the input digest and the outcome digest on stderr, and one JSON line on
//! stdout. With `--trace 1` it instead runs the window once untraced (for
//! the counts) and once traced step by step (for the per-layer ledger),
//! checks that both produced the same outcome digest, runs it once more
//! untraced in one piece to price the tracing, and times the layers that
//! own no step by replaying the run's inputs against them.
//!
//! `--self-test` runs every workload at toy size in both modes and checks
//! the emitted metrics against `BENCHMARK.json`; `--write-spec` rewrites
//! that file from `spec.rs`.

mod burst;
mod churn;
mod city;
mod clock;
mod common;
mod ledger;
mod replay;
mod spec;

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use clock::Clock;
use common::{median, peak_rss_mb, quantile, ratio, Outcome, Row, Scenario};

/// Largest share of the traced total a full-size traced run may leave
/// unattributed before it fails.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// A run starts no further round once this many seconds have passed, so it
/// always exits well inside three minutes.
const MAX_RUN_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Toy,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec::WORKLOADS
        .iter()
        .any(|(name, _)| *name == args.workload)
    {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// What a run prints as its last line. `failed` is always 0 there: an
/// operation that fails fails the correctness gate, and the run then exits
/// non-zero without a result.
struct Report {
    attempted: u64,
    metrics: Vec<Row>,
}

impl Report {
    fn json(&self, trace: bool) -> String {
        let units = spec::metrics_for(trace);
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = units
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or("", |m| m.unit);
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            fields.join(", ")
        )
    }
}

/// One built-and-run world of the untraced loop.
struct Round {
    /// Scaled seconds (see [`clock`]) of each build of the round's world
    /// (see [`SETUP_BATCH_S`]).
    setup_s: Vec<f64>,
    /// Scaled seconds of each slice of the window (see [`SLICES`]).
    laps: Vec<f64>,
    /// Unscaled CPU seconds of the window, yardstick passes left out.
    window_s: f64,
    /// Wall seconds of the whole round.
    wall_s: f64,
    events: u64,
    outcome: Outcome,
}

/// The timed window runs as this many equal spans of simulated time up to
/// [`Scenario::window_end`], plus one for the rest, each a lap of the
/// [`Clock`]. Every round of a seed does the same work in each slice, so a
/// slice's median over the rounds is robust to the odd disturbed lap.
const SLICES: u64 = 100;

/// A round builds its world again until set-up has taken this many scaled
/// seconds in all, and runs the window on the last one. A world that builds
/// in a few milliseconds is then timed many times a round, so its median
/// does not rest on a handful of readings each as short as a page-fault
/// burst.
const SETUP_BATCH_S: f64 = 0.05;

fn round<S: Scenario>(
    build: &impl Fn() -> Result<S, String>,
    clock: &mut Clock,
) -> Result<(Round, S), String> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut s = loop {
        clock.pause();
        let (s, lap) = clock.lap(build);
        let s = s?;
        setup_s.push(lap.scaled_s);
        if setup_s.iter().sum::<f64>() >= SETUP_BATCH_S {
            break s;
        }
    };
    let to = s.window_end();
    let (world, sim) = s.parts();
    let (from, events_before) = (sim.now(), sim.executed());
    let span = to.saturating_since(from);
    let mut laps = Vec::with_capacity(SLICES as usize + 1);
    let mut window_s = 0.0;
    for k in 1..=SLICES {
        let ((), lap) = clock.lap(|| sim.run_until(world, from + span * k / SLICES));
        laps.push(lap.scaled_s);
        window_s += lap.cpu_s;
    }
    let ((), lap) = clock.lap(|| s.run_window());
    laps.push(lap.scaled_s);
    window_s += lap.cpu_s;
    s.gate().map_err(|e| format!("correctness gate: {e}"))?;
    let events = s.parts().1.executed() - events_before;
    let outcome = s.outcome();
    Ok((
        Round {
            setup_s,
            laps,
            window_s,
            wall_s: start.elapsed().as_secs_f64(),
            events,
            outcome,
        },
        s,
    ))
}

/// The end-to-end metrics of repeated untraced rounds.
fn measure<S: Scenario>(
    build: impl Fn() -> Result<S, String>,
    seconds: f64,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut clock = Clock::default();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = rounds.len() >= MIN_ROUNDS && elapsed >= seconds;
        let last = rounds.last().map_or(0.0, |r| r.wall_s);
        if enough || (rounds.len() >= MIN_ROUNDS && elapsed + last > MAX_RUN_S) {
            break;
        }
        let (r, world) = round(&build, &mut clock)?;
        drop(world);
        if let Some(first) = rounds.first() {
            if r.outcome.digest != first.outcome.digest {
                return Err("outcome digest differs between rounds of one seed".into());
            }
        }
        eprintln!(
            "round {}: setup {:.4}s (median of {}), window {:.4}s scaled, {:.4}s cpu",
            rounds.len(),
            median(&r.setup_s),
            r.setup_s.len(),
            r.laps.iter().sum::<f64>(),
            r.window_s
        );
        rounds.push(r);
    }
    let o = &rounds[0].outcome;
    eprintln!("outcome digest {:016x}", o.digest);
    let q = |v: &[f64], p: f64| quantile(v, p).ok_or("no completed migration".to_string());
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    // The window's scaled time: each slice at its median over the rounds.
    let window_s: f64 = (0..rounds[0].laps.len())
        .map(|k| median(&rounds.iter().map(|r| r.laps[k]).collect::<Vec<_>>()))
        .sum();
    let cpu: Vec<f64> = rounds.iter().map(|r| r.window_s).collect();
    eprintln!(
        "window: {window_s:.4}s scaled from the slice medians, median round {:.4}s cpu; \
         yardstick median {:.4} ms, min {:.4} ms",
        median(&cpu),
        median(clock.passes()) * 1e3,
        clock.passes().iter().copied().fold(f64::INFINITY, f64::min) * 1e3
    );
    Ok(Report {
        attempted: rounds.iter().map(|r| r.outcome.attempted).sum(),
        metrics: vec![
            ("setup_s", median(&setup)),
            ("migrations_per_s", o.completed as f64 / window_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("follow_p50_sim_ms", q(&o.follow_ms, 0.5)?),
            ("follow_p99_sim_ms", q(&o.follow_ms, 0.99)?),
            ("migration_p50_sim_ms", q(&o.migration_ms, 0.5)?),
            ("migration_p99_sim_ms", q(&o.migration_ms, 0.99)?),
            ("shipped_kb_per_migration", o.shipped_kib),
        ],
    })
}

/// The per-layer metrics: counts from an untraced round, the ledger from a
/// traced twin, and replay timings. A first round warms the allocator and
/// page cache so the untraced and traced windows compare like with like.
fn trace<S: Scenario>(build: impl Fn() -> Result<S, String>, toy: bool) -> Result<Report, String> {
    let mut clock = Clock::default();
    drop(round(&build, &mut clock)?);
    let (untraced, world) = round(&build, &mut clock)?;
    let mut rows = world.counts();
    rows.extend(world.replay());
    let per_round = world.readings_per_round();
    drop(world);

    let mut twin = build()?;
    clock.pause();
    let (ledger, traced_lap) = clock.lap(|| ledger::traced_window(&mut twin, untraced.events));
    twin.gate()
        .map_err(|e| format!("correctness gate (traced run): {e}"))?;
    let traced = twin.outcome();
    drop(twin);
    if traced.digest != untraced.outcome.digest {
        return Err(format!(
            "traced outcome digest {:016x} differs from untraced {:016x}",
            traced.digest, untraced.outcome.digest
        ));
    }
    let accounted: f64 = ledger.self_s.iter().sum::<f64>() + ledger.unattributed_s;
    if (accounted - ledger.total_s).abs() > 1e-9 * ledger.total_s.max(1.0) {
        return Err(format!(
            "ledger rows sum to {accounted}s, the traced total is {}s",
            ledger.total_s
        ));
    }
    if !toy && ledger.unattributed_s > MAX_UNATTRIBUTED * ledger.total_s {
        return Err(format!(
            "{:.1}% of the traced total is unattributed, above {:.0}%",
            100.0 * ratio(ledger.unattributed_s, ledger.total_s),
            100.0 * MAX_UNATTRIBUTED
        ));
    }
    eprintln!("outcome digest {:016x}", traced.digest);
    eprintln!(
        "ledger: in steps {:.3}s, traced wall {:.3}s, untraced {:.3}s, steps ctx/agent/aa/ma {:?}",
        ledger.total_s, ledger.wall_s, untraced.window_s, ledger.steps
    );

    let o = &untraced.outcome;
    rows.extend(ledger.rows());
    // The same window untraced and unsliced, one lap like the traced run,
    // both in scaled seconds so a change of machine speed between them
    // does not read as tracing cost.
    let mut plain = build()?;
    clock.pause();
    let ((), plain_lap) = clock.lap(|| plain.run_window());
    drop(plain);
    rows.push((
        "tracing_overhead_share",
        ratio(traced_lap.scaled_s - plain_lap.scaled_s, plain_lap.scaled_s),
    ));
    rows.push((
        "context.raw_readings",
        ledger.sense_rounds as f64 * per_round,
    ));
    let value = |rows: &[Row], name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let deliveries = value(&rows, "agent.acl_delivered");
    let agent_s = value(&rows, "agent.self_s");
    rows.push(("agent.ns_per_delivery", ratio(agent_s, deliveries) * 1e9));
    rows.push((
        "migration_failed_share",
        ratio(
            (o.attempted - o.completed.min(o.attempted)) as f64,
            o.attempted as f64,
        ),
    ));
    rows.push((
        "sim.ns_per_event",
        ratio(untraced.window_s, untraced.events as f64) * 1e9,
    ));
    Ok(Report {
        attempted: o.attempted,
        metrics: rows,
    })
}

/// Generates the workload's inputs from the seed and runs it.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace_mode: bool,
    size: Size,
) -> Result<Report, String> {
    let toy = size == Size::Toy;
    macro_rules! go {
        ($build:expr) => {
            if trace_mode {
                trace($build, toy)
            } else {
                measure($build, seconds)
            }
        };
    }
    let report = match workload {
        "city-day" => {
            let inputs = Rc::new(city::Inputs::generate(
                if toy { city::TOY } else { city::FULL },
                seed,
            ));
            eprintln!("seed {seed}, input digest {:016x}", inputs.digest());
            go!(|| city::CityDay::build(Rc::clone(&inputs), seed))
        }
        "migration-burst" => {
            let inputs = Rc::new(burst::Inputs::generate(
                if toy { burst::TOY } else { burst::FULL },
                seed,
            ));
            eprintln!("seed {seed}, input digest {:016x}", inputs.digest());
            go!(|| burst::Burst::build(Rc::clone(&inputs)))
        }
        "churn-grid" => {
            let inputs = Rc::new(churn::Inputs::generate(
                if toy { churn::TOY } else { churn::FULL },
                seed,
            ));
            eprintln!("seed {seed}, input digest {:016x}", inputs.digest());
            go!(|| churn::ChurnGrid::build(Rc::clone(&inputs)))
        }
        other => Err(format!("unknown workload {other:?}")),
    }?;
    check_names(&report, trace_mode)?;
    Ok(report)
}

/// The report must carry exactly the contract's metrics for its mode.
fn check_names(report: &Report, trace: bool) -> Result<(), String> {
    let want: Vec<&str> = spec::metrics_for(trace).iter().map(|m| m.name).collect();
    let mut got: Vec<&str> = report.metrics.iter().map(|r| r.0).collect();
    got.sort_unstable();
    let mut sorted = want.clone();
    sorted.sort_unstable();
    if got != sorted {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "metric set mismatch: missing {missing:?}, extra {extra:?}"
        ));
    }
    Ok(())
}

/// Every workload at toy size in both modes, against `BENCHMARK.json`.
fn self_test() -> Result<(), String> {
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    if committed != spec::benchmark_json() {
        return Err("BENCHMARK.json differs from spec.rs; run with --write-spec".into());
    }
    for (workload, _) in spec::WORKLOADS {
        for trace in [false, true] {
            // `run` gates the outcome and checks the metric names; units and
            // directions come from `spec.rs`, checked against the file above.
            run(workload, 1, 0.0, trace, Size::Toy)?;
            eprintln!("self-test {workload} trace={}: ok", u8::from(trace));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--self-test") => self_test().map(|()| None),
        Some("--write-spec") => std::fs::write("BENCHMARK.json", spec::benchmark_json())
            .map(|()| None)
            .map_err(|e| format!("BENCHMARK.json: {e}")),
        _ => parse_args(&argv).and_then(|a| {
            run(&a.workload, a.seed, a.seconds, a.trace, Size::Full).map(|r| Some(r.json(a.trace)))
        }),
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-city: {e}");
            ExitCode::FAILURE
        }
    }
}
