//! `BENCH_scale.json`: the city-scale churn benchmark behind
//! `figures -- bench-scale`.
//!
//! Two measurements back the calendar-queue rework:
//!
//! 1. **Queue comparison** — identical self-rescheduling tick chains run
//!    under every combination of queue kind (seed-style binary heap vs.
//!    calendar queue) and payload style (boxed closures vs. copy-free
//!    data events), with a fixed event budget. The seed scheduler is
//!    `seed-heap+boxed`; the reworked one is `calendar+data`. Dispatch
//!    order is provably identical (see `simnet/tests/prop_queue.rs`), so
//!    the checksums must agree and only the wall clock may differ.
//! 2. **Churn runs** — a grid city of smart spaces under diurnal
//!    arrival/departure churn: commuting [`ChurnAgent`]s migrate between
//!    containers while the driver spawns and despawns agents to track a
//!    [`DiurnalModel`]. Reported per run: events executed, events/sec,
//!    resident-set size, and migration latency quantiles.
//!
//! Wall-clock and RSS readings live here because this is the measurement
//! crate; everything the simulator itself does stays on virtual time.

use std::time::Instant;

use mdagent_agent::{Agent, AgentId, ContainerId, Platform, PlatformEnv, PlatformHost};
use mdagent_apps::{ChurnAgent, ChurnBoard, ChurnHost, DiurnalModel};
use mdagent_json::Value;
use mdagent_simnet::{
    EventData, QueueKind, SimDuration, SimTime, Simulator, Telemetry, Topology, Trace,
};
use mdagent_wire::from_bytes;

/// Event budget for the full queue comparison (one chain pop + reschedule
/// each); the smoke variant uses a tenth of it.
pub const QUEUE_EVENT_BUDGET: u64 = 4_000_000;

/// Agents (concurrent tick chains) in the full queue comparison.
pub const QUEUE_AGENTS: u64 = 100_000;

/// One mode of the queue comparison.
#[derive(Debug, Clone)]
pub struct QueueMode {
    /// `"<queue>+<payload>"`, e.g. `"seed-heap+boxed"`.
    pub label: &'static str,
    /// Events executed (equals the budget).
    pub events: u64,
    /// Wall-clock time for the run, in milliseconds.
    pub wall_ms: f64,
    /// Throughput in events per second.
    pub events_per_sec: f64,
    /// Order-sensitive digest of the dispatched work; must agree across
    /// modes since all four run the same schedule.
    pub checksum: u64,
}

/// Outcome of one diurnal churn run.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// Row label, e.g. `"churn-100k"`.
    pub label: String,
    /// Smart spaces in the grid.
    pub spaces: u32,
    /// Hosts (= containers) in the city.
    pub hosts: u32,
    /// Daily peak population.
    pub peak_agents: u64,
    /// Events executed over the day plus drain.
    pub events: u64,
    /// Wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Throughput in events per second.
    pub events_per_sec: f64,
    /// Resident set right after the run, with the world still alive (MiB).
    pub rss_mb: f64,
    /// Process peak resident set so far (MiB, monotone across runs).
    pub peak_rss_mb: f64,
    /// Agents spawned over the day.
    pub spawned: u64,
    /// Agents despawned over the day.
    pub despawned: u64,
    /// Completed migrations (commute arrivals).
    pub migrations: u64,
    /// Median migration latency, simulated milliseconds.
    pub migration_p50_ms: f64,
    /// Tail migration latency, simulated milliseconds.
    pub migration_p99_ms: f64,
}

// ---- queue comparison ------------------------------------------------------

/// Data-event tick: accumulate and reschedule the same chain.
fn tick_chain(acc: &mut u64, sim: &mut Simulator<u64>, d: EventData) {
    *acc = acc.wrapping_mul(31).wrapping_add(d.a);
    sim.schedule_data_in(SimDuration::from_micros(d.b), tick_chain, d);
}

/// Boxed-closure tick (the seed idiom): one heap allocation per event.
fn boxed_chain(sim: &mut Simulator<u64>, seat: u64, period: u64) {
    sim.schedule_in(
        SimDuration::from_micros(period),
        move |acc: &mut u64, sim| {
            *acc = acc.wrapping_mul(31).wrapping_add(seat);
            boxed_chain(sim, seat, period);
        },
    );
}

/// Deterministic per-chain period in `[500, 10_000)` µs — the spread keeps
/// many calendar windows occupied at once.
fn chain_period(seat: u64) -> u64 {
    500 + seat.wrapping_mul(2_654_435_761) % 9_500
}

/// Runs one queue-comparison mode: `agents` concurrent tick chains under
/// the given queue kind and payload style, stopping at `budget` events.
fn queue_mode(
    label: &'static str,
    kind: QueueKind,
    boxed: bool,
    agents: u64,
    budget: u64,
) -> QueueMode {
    let mut sim: Simulator<u64> = Simulator::with_queue(kind);
    for seat in 0..agents {
        let period = chain_period(seat);
        if boxed {
            boxed_chain(&mut sim, seat, period);
        } else {
            sim.schedule_data_in(
                SimDuration::from_micros(period),
                tick_chain,
                EventData::new(seat, period),
            );
        }
    }
    let mut acc = 0u64;
    let start = Instant::now();
    while sim.executed() < budget && sim.step(&mut acc) {}
    let wall = start.elapsed().as_secs_f64();
    QueueMode {
        label,
        events: sim.executed(),
        wall_ms: wall * 1_000.0,
        events_per_sec: sim.executed() as f64 / wall.max(1e-9),
        checksum: acc,
    }
}

/// Interleaved measurement rounds per mode; the fastest round is reported
/// so a machine-speed wobble mid-suite cannot fake (or hide) a speedup.
const QUEUE_ROUNDS: usize = 3;

/// All four queue-comparison modes on the same schedule, seed first.
///
/// Each mode runs `QUEUE_ROUNDS` times, round-robin across modes so
/// clock drift hits every mode alike, and reports its fastest round.
pub fn compare_queues(agents: u64, budget: u64) -> Vec<QueueMode> {
    let configs: [(&'static str, QueueKind, bool); 4] = [
        ("seed-heap+boxed", QueueKind::ReferenceHeap, true),
        ("seed-heap+data", QueueKind::ReferenceHeap, false),
        ("calendar+boxed", QueueKind::Calendar, true),
        ("calendar+data", QueueKind::Calendar, false),
    ];
    let mut modes: Vec<Option<QueueMode>> = vec![None; configs.len()];
    for _ in 0..QUEUE_ROUNDS {
        for (i, &(label, kind, boxed)) in configs.iter().enumerate() {
            let run = queue_mode(label, kind, boxed, agents, budget);
            // Same schedule + same budget + proven identical pop order ⇒
            // every round's order-sensitive digest must agree; a mismatch
            // means the calendar queue broke the determinism contract,
            // which no speedup excuses.
            if let Some(first) = &modes[0] {
                assert_eq!(
                    run.checksum, first.checksum,
                    "dispatch order diverged in mode {label}"
                );
                assert_eq!(run.events, first.events);
            }
            match &mut modes[i] {
                best @ None => *best = Some(run),
                Some(best) if run.wall_ms < best.wall_ms => *best = run,
                _ => {}
            }
        }
    }
    modes.into_iter().flatten().collect()
}

// ---- churn runs ------------------------------------------------------------

/// How often the driver reconciles the live population with the diurnal
/// target, as a fraction of a model hour.
const STEPS_PER_HOUR: u64 = 6;

/// The city under test: a platform over a grid topology plus the churn
/// bulletin and the driver's population-control state.
pub struct CityWorld {
    platform: Platform<CityWorld>,
    env: PlatformEnv,
    board: ChurnBoard,
    model: DiurnalModel,
    /// Daily peak population the diurnal target scales from.
    peak: u64,
    /// End of the churn schedule; after this the world closes and drains.
    end: SimTime,
    /// Monotone seat counter (agent identity source).
    next_seat: u64,
    /// Live agents in spawn order; departures despawn from the back.
    roster: Vec<AgentId>,
    spawned: u64,
    despawned: u64,
}

impl PlatformHost for CityWorld {
    fn platform(&self) -> &Platform<CityWorld> {
        &self.platform
    }
    fn platform_mut(&mut self) -> &mut Platform<CityWorld> {
        &mut self.platform
    }
    fn env(&self) -> &PlatformEnv {
        &self.env
    }
    fn env_mut(&mut self) -> &mut PlatformEnv {
        &mut self.env
    }
}

impl ChurnHost for CityWorld {
    fn churn(&self) -> &ChurnBoard {
        &self.board
    }
    fn churn_mut(&mut self) -> &mut ChurnBoard {
        &mut self.board
    }
}

impl CityWorld {
    /// Builds the city: `side`×`side` spaces with `hosts_per_space` hosts
    /// each, one container per host, and the churn factory registered.
    /// Trace and telemetry are disabled — this benchmark measures the
    /// scheduler and the agent arena, not the narrative log.
    pub fn new(
        side: u32,
        hosts_per_space: u32,
        peak: u64,
        model: DiurnalModel,
        mean_pause: SimDuration,
        payload_bytes: u64,
    ) -> CityWorld {
        let topo = Topology::grid_city(side, hosts_per_space).expect("grid city");
        let mut platform = Platform::new("city");
        let hosts: Vec<_> = topo.hosts().map(|h| h.id()).collect();
        for (i, h) in hosts.iter().enumerate() {
            platform.create_container(format!("c{i}"), *h);
        }
        platform.register_factory(
            ChurnAgent::TYPE_NAME,
            Box::new(|bytes| {
                from_bytes::<ChurnAgent>(bytes).map(|a| Box::new(a) as Box<dyn Agent<CityWorld>>)
            }),
        );
        let mut env = PlatformEnv::new(topo);
        env.trace = Trace::disabled();
        env.telemetry = Telemetry::disabled();
        let board = ChurnBoard::new(hosts.len() as u32, payload_bytes, mean_pause);
        let end = SimTime::ZERO + model.hour * 24;
        CityWorld {
            platform,
            env,
            board,
            model,
            peak,
            end,
            next_seat: 0,
            roster: Vec::new(),
            spawned: 0,
            despawned: 0,
        }
    }

    /// Population-control step: spawn or despawn until the live count
    /// matches the diurnal target, then reschedule until the day ends.
    fn churn_step(world: &mut CityWorld, sim: &mut Simulator<CityWorld>) {
        if sim.now() >= world.end {
            world.board.closing = true;
            return;
        }
        let target = world.model.target(world.peak, sim.now());
        let live = world.roster.len() as u64;
        if live < target {
            for _ in live..target {
                let seat = world.next_seat;
                world.next_seat += 1;
                let agent = ChurnAgent::new(seat, world.board.containers);
                let home = ContainerId(agent.home as u32);
                match Platform::spawn(world, sim, home, &format!("c{seat}"), Box::new(agent)) {
                    Ok(id) => {
                        world.roster.push(id);
                        world.spawned += 1;
                    }
                    Err(e) => panic!("churn spawn failed: {e:?}"),
                }
            }
        } else {
            for _ in target..live {
                let Some(id) = world.roster.pop() else { break };
                Platform::despawn(world, &id);
                world.despawned += 1;
            }
        }
        let step = world.model.hour / STEPS_PER_HOUR;
        sim.schedule_fn_in(step, CityWorld::churn_step);
    }
}

/// Current and peak resident set in KiB, from `/proc/self/status`
/// (`VmRSS`, `VmHWM`). Returns zeros off Linux.
fn rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Runs one diurnal churn day and reports throughput, memory and
/// migration latency.
pub fn run_churn(label: &str, side: u32, hosts_per_space: u32, peak: u64) -> ChurnRun {
    // One model hour per simulated minute: a full diurnal cycle in 24
    // simulated minutes; agents commute roughly every two model hours.
    let model = DiurnalModel::city(SimDuration::from_mins(1));
    let mean_pause = SimDuration::from_mins(2);
    let mut world = CityWorld::new(side, hosts_per_space, peak, model, mean_pause, 4_096);
    let mut sim: Simulator<CityWorld> = Simulator::new();
    sim.schedule_fn_in(SimDuration::ZERO, CityWorld::churn_step);
    let start = Instant::now();
    sim.run(&mut world);
    let wall = start.elapsed().as_secs_f64();
    let (rss, hwm) = rss_kb();
    let stats = &world.board.stats;
    ChurnRun {
        label: label.to_owned(),
        spaces: side * side,
        hosts: world.board.containers,
        peak_agents: peak,
        events: sim.executed(),
        wall_ms: wall * 1_000.0,
        events_per_sec: sim.executed() as f64 / wall.max(1e-9),
        rss_mb: rss as f64 / 1_024.0,
        peak_rss_mb: hwm as f64 / 1_024.0,
        spawned: world.spawned,
        despawned: world.despawned,
        migrations: stats.trips_completed,
        migration_p50_ms: stats.arrivals.quantile(0.5).as_millis_f64(),
        migration_p99_ms: stats.arrivals.quantile(0.99).as_millis_f64(),
    }
}

// ---- JSON emission ---------------------------------------------------------

/// The full scale benchmark (or its CI smoke slice) as one JSON document.
///
/// Smoke mode shrinks the queue comparison tenfold and runs only the 1k
/// churn row, so CI can regenerate and gate the artifact in seconds; the
/// full mode adds the 1024-space 10k and 100k rows the paper-scale claim
/// rests on.
pub fn bench_scale_json(smoke: bool) -> String {
    let (agents, budget) = if smoke {
        (QUEUE_AGENTS / 10, QUEUE_EVENT_BUDGET / 10)
    } else {
        (QUEUE_AGENTS, QUEUE_EVENT_BUDGET)
    };
    let modes = compare_queues(agents, budget);
    let seed = modes[0].events_per_sec;
    let calendar = modes[3].events_per_sec;
    let speedup = calendar / seed.max(1e-9);

    let mut runs = vec![run_churn("churn-1k", 8, 2, 1_000)];
    if !smoke {
        runs.push(run_churn("churn-10k", 32, 2, 10_000));
        runs.push(run_churn("churn-100k", 32, 2, 100_000));
    }

    let modes = modes.iter().map(|m| {
        Value::object([
            ("label", m.label.into()),
            ("events", m.events.into()),
            ("wall_ms", Value::fixed(m.wall_ms, 3)),
            ("events_per_sec", Value::fixed(m.events_per_sec, 0)),
        ])
    });
    let queue_comparison = Value::object([
        ("workload", "tick-chains".into()),
        ("agents", agents.into()),
        ("event_budget", budget.into()),
        ("modes", Value::array(modes)),
        ("speedup_events_per_sec", Value::fixed(speedup, 2)),
    ]);
    let runs = runs.iter().map(|r| {
        Value::object([
            ("label", r.label.as_str().into()),
            ("spaces", r.spaces.into()),
            ("hosts", r.hosts.into()),
            ("peak_agents", r.peak_agents.into()),
            ("events", r.events.into()),
            ("wall_ms", Value::fixed(r.wall_ms, 1)),
            ("events_per_sec", Value::fixed(r.events_per_sec, 0)),
            ("rss_mb", Value::fixed(r.rss_mb, 1)),
            ("peak_rss_mb", Value::fixed(r.peak_rss_mb, 1)),
            ("spawned", r.spawned.into()),
            ("despawned", r.despawned.into()),
            ("migrations", r.migrations.into()),
            ("migration_p50_ms", Value::fixed(r.migration_p50_ms, 3)),
            ("migration_p99_ms", Value::fixed(r.migration_p99_ms, 3)),
        ])
    });
    let smoke_flag = if smoke { " --smoke" } else { "" };
    Value::object([
        ("schema", "mdagent-bench/scale/v1".into()),
        (
            "command",
            format!(
                "cargo run --release -p mdagent-bench --bin figures -- bench-scale{smoke_flag}"
            )
            .into(),
        ),
        (
            "note",
            "queue_comparison runs identical self-rescheduling tick chains under every \
             queue/payload combination with a fixed event budget (seed-heap+boxed is the seed \
             scheduler, calendar+data the rework; checksums prove identical dispatch order); \
             churn runs simulate one diurnal day of commuting agents over a grid city, with \
             trace and telemetry disabled so the scheduler and agent arena are what is measured"
                .into(),
        ),
        ("smoke", smoke.into()),
        ("queue_comparison", queue_comparison),
        ("runs", Value::array(runs)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_modes_agree_on_dispatch_order() {
        let modes = compare_queues(500, 20_000);
        assert_eq!(modes.len(), 4);
        assert!(modes.iter().all(|m| m.events == 20_000));
        assert!(modes.iter().all(|m| m.checksum == modes[0].checksum));
    }

    #[test]
    fn tiny_churn_day_completes_and_measures() {
        let run = run_churn("churn-tiny", 2, 1, 40);
        assert_eq!(run.spaces, 4);
        assert!(run.spawned >= 40, "peak hours must reach the peak");
        assert!(run.despawned > 0, "the evening decline must despawn");
        assert!(run.migrations > 0);
        assert!(run.migration_p99_ms >= run.migration_p50_ms);
        assert!(run.migration_p50_ms >= 5.0, "at least the handshake cost");
    }

    #[test]
    fn smoke_json_is_valid_enough() {
        let json = bench_scale_json(true);
        assert!(json.contains("\"schema\": \"mdagent-bench/scale/v1\""));
        assert!(json.contains("churn-1k"));
        assert!(json.contains("seed-heap+boxed"));
        assert!(json.contains("calendar+data"));
    }
}
