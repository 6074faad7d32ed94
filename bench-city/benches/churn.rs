//! `churn-grid`: bare-platform diurnal churn on a 32 x 32 grid city.
//!
//! 1024 spaces and 2048 hosts, one container each. Commuting
//! [`ChurnAgent`]s shuttle between home and work containers while an
//! in-simulation population step spawns and despawns agents to track a
//! [`DiurnalModel`]. Trace and telemetry are off. The scheduler,
//! `Topology::route` and the platform's agent arena do nearly all the work.

use std::collections::BTreeSet;

use mdagent_agent::{Agent, AgentId, ContainerId, Platform, PlatformEnv, PlatformHost};
use mdagent_apps::{ChurnAgent, ChurnBoard, ChurnHost, DiurnalModel};
use mdagent_simnet::{HostId, SimDuration, SimRng, SimTime, Simulator, Telemetry, Topology, Trace};
use mdagent_wire::from_bytes;

use crate::common::{ratio, Baseline, Fnv, Outcome, Probe, Row, Scenario, REPLAY_CAP};
use crate::replay;

/// Size of one churn day.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub side: u32,
    pub hosts_per_space: u32,
    /// Daily peak population.
    pub peak: u64,
    /// One model hour on the simulated clock.
    pub hour: SimDuration,
    /// Mean dwell between commutes.
    pub mean_pause: SimDuration,
    /// Cargo bytes on every commute.
    pub payload_bytes: u64,
}

/// 1024 spaces, 2048 hosts, 16k peak agents, a day in 24 sim minutes.
pub const FULL: Params = Params {
    side: 32,
    hosts_per_space: 2,
    peak: 16_000,
    hour: SimDuration::from_secs(60),
    mean_pause: SimDuration::from_secs(120),
    payload_bytes: 4_096,
};

pub const TOY: Params = Params {
    side: 4,
    hosts_per_space: 1,
    peak: 60,
    hour: SimDuration::from_secs(5),
    mean_pause: SimDuration::from_secs(10),
    payload_bytes: 4_096,
};

/// Population steps per model hour.
const STEPS_PER_HOUR: u64 = 6;

/// Everything the seed generates for one churn day.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: Params,
    /// First seat number; seats fix each agent's home, work and dwell
    /// jitter.
    pub seat_offset: u64,
}

impl Inputs {
    pub fn generate(params: Params, seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from(seed ^ 0xC4_0525);
        Inputs {
            params,
            seat_offset: rng.uniform_u64(0, 1 << 40),
        }
    }

    pub fn digest(&self) -> u64 {
        let p = &self.params;
        Fnv::default()
            .word(self.seat_offset)
            .word(u64::from(p.side))
            .word(p.peak)
            .word(p.hour.as_micros())
            .finish()
    }
}

/// The churn city: a platform over the grid, the churn bulletin and the
/// population driver's state.
pub struct ChurnWorld {
    platform: Platform<ChurnWorld>,
    env: PlatformEnv,
    board: ChurnBoard,
    model: DiurnalModel,
    peak: u64,
    end: SimTime,
    next_seat: u64,
    seat_offset: u64,
    /// Live agents in spawn order; departures despawn from the back.
    roster: Vec<AgentId>,
    spawned: u64,
    despawned: u64,
    spawn_errors: u64,
}

impl PlatformHost for ChurnWorld {
    fn platform(&self) -> &Platform<ChurnWorld> {
        &self.platform
    }
    fn platform_mut(&mut self) -> &mut Platform<ChurnWorld> {
        &mut self.platform
    }
    fn env(&self) -> &PlatformEnv {
        &self.env
    }
    fn env_mut(&mut self) -> &mut PlatformEnv {
        &mut self.env
    }
}

impl ChurnHost for ChurnWorld {
    fn churn(&self) -> &ChurnBoard {
        &self.board
    }
    fn churn_mut(&mut self) -> &mut ChurnBoard {
        &mut self.board
    }
}

/// Population step: spawn or despawn to the diurnal target, then come
/// back until the day ends.
fn churn_step(w: &mut ChurnWorld, sim: &mut Simulator<ChurnWorld>) {
    if sim.now() >= w.end {
        w.board.closing = true;
        return;
    }
    let target = w.model.target(w.peak, sim.now());
    let live = w.roster.len() as u64;
    for _ in live..target {
        let seat = w.seat_offset + w.next_seat;
        w.next_seat += 1;
        let agent = ChurnAgent::new(seat, w.board.containers);
        let home = ContainerId(agent.home as u32);
        match Platform::spawn(w, sim, home, &format!("c{seat}"), Box::new(agent)) {
            Ok(id) => {
                w.roster.push(id);
                w.spawned += 1;
            }
            Err(_) => w.spawn_errors += 1,
        }
    }
    for _ in target..live {
        let Some(id) = w.roster.pop() else { break };
        Platform::despawn(w, &id);
        w.despawned += 1;
    }
    sim.schedule_fn_in(w.model.hour / STEPS_PER_HOUR, churn_step);
}

/// A built churn day.
pub struct ChurnGrid {
    world: ChurnWorld,
    sim: Simulator<ChurnWorld>,
    inputs: std::rc::Rc<Inputs>,
    window_start: u64,
    base: Baseline,
}

impl ChurnGrid {
    /// Set-up: the grid, one container per host, the factory, and the
    /// first population step (the night population).
    pub fn build(inputs: std::rc::Rc<Inputs>) -> Result<ChurnGrid, String> {
        let p = inputs.params;
        let topo = Topology::grid_city(p.side, p.hosts_per_space).map_err(|e| e.to_string())?;
        let mut platform = Platform::new("city");
        let hosts: Vec<HostId> = topo.hosts().map(|h| h.id()).collect();
        for (i, h) in hosts.iter().enumerate() {
            platform.create_container(format!("c{i}"), *h);
        }
        platform.register_factory(
            ChurnAgent::TYPE_NAME,
            Box::new(|bytes| {
                from_bytes::<ChurnAgent>(bytes).map(|a| Box::new(a) as Box<dyn Agent<ChurnWorld>>)
            }),
        );
        let mut env = PlatformEnv::new(topo);
        env.trace = Trace::disabled();
        env.telemetry = Telemetry::disabled();
        let model = DiurnalModel::city(p.hour);
        let mut world = ChurnWorld {
            platform,
            env,
            board: ChurnBoard::new(hosts.len() as u32, p.payload_bytes, p.mean_pause),
            end: SimTime::ZERO + model.hour * 24,
            model,
            peak: p.peak,
            next_seat: 0,
            seat_offset: inputs.seat_offset,
            roster: Vec::new(),
            spawned: 0,
            despawned: 0,
            spawn_errors: 0,
        };
        let mut sim = Simulator::new();
        sim.schedule_fn_in(SimDuration::ZERO, churn_step);
        sim.step(&mut world);
        let base = Baseline::take(&world.env.metrics);
        let window_start = sim.executed();
        Ok(ChurnGrid {
            world,
            sim,
            inputs,
            window_start,
            base,
        })
    }

    /// Host pairs `(home, work)` of every seat spawned so far.
    fn pairs(&self) -> BTreeSet<(HostId, HostId)> {
        let w = &self.world;
        (0..w.next_seat)
            .map(|k| ChurnAgent::new(w.seat_offset + k, w.board.containers))
            .flat_map(|a| {
                let (h, k) = (HostId(a.home as u32), HostId(a.work as u32));
                [(h, k), (k, h)]
            })
            .collect()
    }
}

impl Scenario for ChurnGrid {
    type World = ChurnWorld;

    fn parts(&mut self) -> (&mut ChurnWorld, &mut Simulator<ChurnWorld>) {
        (&mut self.world, &mut self.sim)
    }

    /// The end of the model day; commutes still under way then drain in
    /// the window's last slice.
    fn window_end(&self) -> SimTime {
        self.world.end
    }

    fn run_window(&mut self) {
        self.sim.run(&mut self.world);
    }

    fn probe(&self) -> Probe {
        let w = &self.world;
        Probe {
            agent: [
                w.spawned,
                w.despawned,
                w.env.metrics.counter("platform.moves"),
                w.board.stats.trips_completed,
            ],
            ..Probe::default()
        }
    }

    fn gate(&self) -> Result<(), String> {
        let w = &self.world;
        if w.spawn_errors > 0 {
            return Err(format!("{} spawns failed", w.spawn_errors));
        }
        if self.sim.pending() != 0 || !w.board.closing {
            return Err("the day did not drain".into());
        }
        let live = w.roster.len() as u64;
        if w.spawned - w.despawned != live || w.platform.agent_count() as u64 != live {
            return Err(format!(
                "spawned {} - despawned {} != live roster {live} (platform holds {})",
                w.spawned,
                w.despawned,
                w.platform.agent_count()
            ));
        }
        let s = &w.board.stats;
        if s.trips_completed > s.trips_started {
            return Err(format!(
                "{} arrivals exceed {} departures",
                s.trips_completed, s.trips_started
            ));
        }
        Ok(())
    }

    fn outcome(&self) -> Outcome {
        let w = &self.world;
        let s = &w.board.stats;
        let ms: Vec<f64> = s
            .arrivals
            .samples()
            .iter()
            .map(|d| d.as_millis_f64())
            .collect();
        let moves = self.base.delta(&w.env.metrics, "platform.moves");
        let bytes = self.base.delta(&w.env.metrics, "platform.move_bytes");
        let mut h = Fnv::default();
        h.word(s.trips_started)
            .word(s.trips_completed)
            .word(w.spawned)
            .word(w.despawned);
        for d in s.arrivals.samples() {
            h.word(d.as_micros());
        }
        Outcome {
            attempted: s.trips_started,
            completed: s.trips_completed,
            // A commute is the migration: departure decision to arrival.
            follow_ms: ms.clone(),
            migration_ms: ms,
            shipped_kib: ratio(bytes, moves) / 1024.0,
            digest: h.word(self.sim.executed()).finish(),
        }
    }

    fn counts(&self) -> Vec<Row> {
        let w = &self.world;
        let (m, b) = (&w.env.metrics, &self.base);
        let mut rows: Vec<Row> = [
            "context.published",
            "context.notices",
            "context.notice_useful_ratio",
            "aa.decisions",
            "aa.declined",
            "registry.lookups",
            "registry.app_writes",
            "registry.full_materializations",
            "ma.completed",
            "ma.retries",
            "ma.rollbacks",
            "ma.shipped_bytes",
            "ma.bytes_saved_cache",
            "ma.cache_hit_ratio",
            "obs.trace_events",
            "obs.spans",
        ]
        .into_iter()
        .map(|name| (name, 0.0))
        .collect();
        rows.extend([
            ("agent.acl_sent", b.delta(m, "acl.sent")),
            ("agent.acl_delivered", b.delta(m, "acl.delivered")),
            ("agent.acl_bytes", b.delta(m, "acl.bytes_sent")),
            ("agent.moves", b.delta(m, "platform.moves")),
            ("agent.move_bytes", b.delta(m, "platform.move_bytes")),
            (
                "wire.bytes_encoded",
                b.delta(m, "acl.bytes_sent") + b.delta(m, "platform.move_bytes"),
            ),
            (
                "sim.events",
                (self.sim.executed() - self.window_start) as f64,
            ),
            ("topology.distinct_pairs", self.pairs().len() as f64),
            ("obs.counter_series", m.counters().count() as f64),
        ]);
        rows
    }

    fn replay(&self) -> Vec<Row> {
        let w = &self.world;
        let agents: Vec<ChurnAgent> = (0..w.next_seat.min(REPLAY_CAP as u64))
            .map(|k| ChurnAgent::new(w.seat_offset + k, w.board.containers))
            .collect();
        let refs: Vec<&ChurnAgent> = agents.iter().collect();
        // Spread the replayed pairs over the whole run, not its first seats.
        let pairs: Vec<(HostId, HostId)> = self.pairs().into_iter().collect();
        let step = (pairs.len() / REPLAY_CAP).max(1);
        let pairs: Vec<_> = pairs.into_iter().step_by(step).take(REPLAY_CAP).collect();
        let p = self.inputs.params;
        let mut rows: Vec<Row> = [
            "aa.decide_us",
            "reasoner.facts_derived",
            "registry.find_application_us",
            "registry.register_us",
            "context.sense_round_us",
        ]
        .into_iter()
        .map(|name| (name, 0.0))
        .collect();
        rows.extend(replay::wire_rows(&refs));
        rows.extend(replay::route_rows(&pairs, || {
            Topology::grid_city(p.side, p.hosts_per_space).ok()
        }));
        rows
    }
}
