//! `migration-burst`: the mobile agent's data path under load.
//!
//! The Fig. 8 media player (180 KB codec, 60 KB UI, 4.3 MB music file) on
//! a few apps that shuttle back and forth between two rooms with
//! `migrate_now`, over a LAN hop and a gateway hop. Static and adaptive
//! binding alternate, the component cache and delta snapshots are on, and
//! every link drops transfers at random, so the retry and rollback layers
//! work too. Sensing and AAs are off: the MA's wrap, snapshot, wire and
//! the layer stack do nearly all the work.

use std::cell::RefCell;
use std::rc::Rc;

use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DataPathOptions,
    FaultOptions, Middleware, MigrationReport, MobilityMode, UserProfile,
};
use mdagent_simnet::{HostId, SimDuration, SimRng, SimTime, Simulator, SpaceId};

use crate::city::{log_digest, mw_counts, mw_probe, mw_trace_layer, registry_gate, shipped_kib};
use crate::common::{
    Baseline, Fnv, Layer, Layout, LinkSpec, Outcome, Probe, Row, Scenario, REPLAY_CAP,
};
use crate::replay;

/// Size of one migration-burst world.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Media players shuttling at once.
    pub apps: u32,
    /// Departures scheduled per app.
    pub trips: u32,
}

/// The benchmark's size: 8 players of 640 trips each (5,120 departures).
pub const FULL: Params = Params {
    apps: 8,
    trips: 640,
};

/// The self-test's size.
pub const TOY: Params = Params { apps: 2, trips: 8 };

/// Per-link probability that a transfer is lost.
const DROP_PROBABILITY: f64 = 0.1;
/// A player departs once per period; players are staggered across it.
const PERIOD: SimDuration = SimDuration::from_secs(20);
/// Largest seeded delay of a departure after its slot.
const JITTER_MS: u64 = 2_000;
/// The first departure's slot, after the warm-up round trips.
const WARMUP: SimDuration = SimDuration::from_secs(1);
/// After the last departure the window runs this long so every flight ends.
const DRAIN: SimDuration = SimDuration::from_secs(120);

/// The music file of Fig. 8: the paper's 4.3 MB midpoint.
const MUSIC_FILE_BYTES: usize = 4_300_000;

/// One scheduled departure.
#[derive(Debug, Clone, Copy)]
pub struct Trip {
    pub at: SimTime,
    pub app: u32,
    pub policy: BindingPolicy,
    /// The playback position the player writes into its state first.
    pub position_ms: u64,
}

/// Everything the seed generates for one migration-burst.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: Params,
    /// The departure schedule, by time.
    pub trips: Vec<Trip>,
    /// Seeds the fault injector's drop schedule.
    pub fault_seed: u64,
}

impl Inputs {
    pub fn generate(params: Params, seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from(seed ^ 0xB0B5_7A11);
        let slot = PERIOD.as_micros() / u64::from(params.apps);
        let mut trips = Vec::new();
        for app in 0..params.apps {
            // Static and adaptive binding alternate; half the players start
            // with each, so what the caches hold does not hang on the seed.
            let first_static = app % 2 == 0;
            for k in 0..params.trips {
                let start =
                    WARMUP.as_micros() + u64::from(k) * PERIOD.as_micros() + u64::from(app) * slot;
                trips.push(Trip {
                    at: SimTime::ZERO
                        + SimDuration::from_micros(start)
                        + SimDuration::from_millis(rng.uniform_u64(0, JITTER_MS)),
                    app,
                    policy: if (k % 2 == 0) == first_static {
                        BindingPolicy::Static
                    } else {
                        BindingPolicy::Adaptive
                    },
                    position_ms: rng.uniform_u64(0, 240_000),
                });
            }
        }
        trips.sort_by_key(|t| (t.at, t.app));
        Inputs {
            params,
            trips,
            fault_seed: rng.uniform_u64(0, u64::MAX),
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for t in &self.trips {
            h.word(t.at.as_micros())
                .word(u64::from(t.app))
                .word(u64::from(t.policy == BindingPolicy::Static))
                .word(t.position_ms);
        }
        h.word(self.fault_seed).finish()
    }
}

/// Two rooms: the players' home PC and a gateway PC on the room-a LAN,
/// and the away PC across the gateway, so every trip crosses two links.
pub fn layout() -> Layout {
    let link = |a, b, gateway| LinkSpec {
        a,
        b,
        latency_ms: if gateway { 5 } else { 1 },
        bandwidth_bps: 10_000_000,
        efficiency: if gateway { 0.7 } else { 0.8 },
        gateway,
    };
    Layout {
        spaces: vec!["room-a".into(), "room-b".into()],
        hosts: vec![
            ("p4-1.7ghz".into(), 0, 1.0),
            ("gw".into(), 0, 1.0),
            ("pm-1.6ghz".into(), 1, 0.94),
        ],
        links: vec![link(0, 1, false), link(1, 2, true)],
    }
}

const HOME: HostId = HostId(0);
const AWAY: HostId = HostId(2);

fn player() -> ComponentSet {
    [
        Component::synthetic("codec", ComponentKind::Logic, 180_000),
        Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("music-file", ComponentKind::Data, MUSIC_FILE_BYTES),
    ]
    .into_iter()
    .collect()
}

/// What the departure events record.
#[derive(Debug, Default)]
struct Log {
    /// Departures started, per app, by time.
    departed: Vec<Vec<SimTime>>,
    /// `migrate_now` calls that returned an error.
    errors: u64,
}

/// A built migration-burst world.
pub struct Burst {
    world: Middleware,
    sim: Simulator<Middleware>,
    apps: Vec<AppId>,
    end: SimTime,
    window_start: u64,
    /// Migration-log entries written by the warm-up.
    log_start: usize,
    base: Baseline,
    log: Rc<RefCell<Log>>,
}

impl Burst {
    /// Set-up: topology, deployment of every player at home, the UI
    /// provisioned away, a warm-up round trip per player, and the
    /// departure schedule.
    pub fn build(inputs: Rc<Inputs>) -> Result<Burst, String> {
        let p = inputs.params;
        let mut b = Middleware::builder();
        layout().apply(&mut b).map_err(|e| e.to_string())?;
        b.seed(inputs.fault_seed)
            .data_path(DataPathOptions::all())
            .faults(FaultOptions::with_drop_probability(DROP_PROBABILITY));
        let (mut world, mut sim) = b.build();
        let mut apps = Vec::with_capacity(p.apps as usize);
        for a in 0..p.apps {
            let name = format!("smart-media-player-{a}");
            let app = Middleware::deploy_app(
                &mut world,
                &mut sim,
                &name,
                HOME,
                player(),
                UserProfile::new(UserId(a)),
            )
            .map_err(|e| e.to_string())?;
            let ui = [Component::synthetic(
                "player-ui",
                ComponentKind::Presentation,
                60_000,
            )];
            world
                .provision(AWAY, &name, ui.into_iter().collect())
                .map_err(|e| e.to_string())?;
            let coordinator = &mut world.app_mut(app).map_err(|e| e.to_string())?.coordinator;
            for i in 0..64 {
                coordinator.set_state(format!("playlist-{i:02}"), format!("track-{i:02}.mp3"));
            }
            apps.push(app);
        }
        // Warm-up: every player makes one fault-free static round trip, so
        // both rooms' component caches hold it before the timed window, and
        // the window's shipped bytes do not hang on which first trips the
        // links happened to drop.
        world.faults_mut().set_options(FaultOptions::default());
        for dest in [AWAY, HOME] {
            for &app in &apps {
                let policy = BindingPolicy::Static;
                Middleware::migrate_now(
                    &mut world,
                    &mut sim,
                    app,
                    dest,
                    MobilityMode::FollowMe,
                    policy,
                )
                .map_err(|e| e.to_string())?;
            }
            sim.run(&mut world);
        }
        world
            .faults_mut()
            .set_options(FaultOptions::with_drop_probability(DROP_PROBABILITY));
        let log_start = world.migration_log().len();
        let offset = sim.now().saturating_since(SimTime::ZERO);
        let log = Rc::new(RefCell::new(Log {
            departed: vec![Vec::new(); p.apps as usize],
            ..Log::default()
        }));
        for t in &inputs.trips {
            let (app, log, t) = (apps[t.app as usize], Rc::clone(&log), *t);
            sim.schedule_at(t.at + offset, move |w: &mut Middleware, sim| {
                let mut log = log.borrow_mut();
                let Ok(player) = w.app(app) else {
                    log.errors += 1;
                    return;
                };
                // A player still retrying its last trip sits this slot out.
                if player.state != AppState::Running {
                    return;
                }
                let dest = if player.host == HOME { AWAY } else { HOME };
                let position = t.position_ms.to_string();
                let started = Middleware::update_app_state(w, sim, app, "position-ms", &position)
                    .and_then(|_| {
                        Middleware::migrate_now(w, sim, app, dest, MobilityMode::FollowMe, t.policy)
                    });
                match started {
                    Ok(()) => log.departed[t.app as usize].push(sim.now()),
                    Err(_) => log.errors += 1,
                }
            });
        }
        let end = inputs.trips.last().map_or(SimTime::ZERO, |t| t.at) + offset + DRAIN;
        let base = Baseline::take(world.metrics());
        let window_start = sim.executed();
        Ok(Burst {
            world,
            sim,
            apps,
            end,
            window_start,
            log_start,
            base,
            log,
        })
    }
}

impl Burst {
    /// The migration log of the timed window.
    fn window_log(&self) -> &[MigrationReport] {
        &self.world.migration_log()[self.log_start..]
    }
}

impl Scenario for Burst {
    type World = Middleware;

    fn parts(&mut self) -> (&mut Middleware, &mut Simulator<Middleware>) {
        (&mut self.world, &mut self.sim)
    }

    fn window_end(&self) -> SimTime {
        self.end
    }

    fn run_window(&mut self) {
        self.sim.run(&mut self.world);
    }

    fn probe(&self) -> Probe {
        mw_probe(&self.world)
    }

    fn trace_layer(&self, before: &Probe, after: &Probe) -> Option<Layer> {
        mw_trace_layer(&self.world, before, after)
    }

    fn gate(&self) -> Result<(), String> {
        let w = &self.world;
        let log = self.log.borrow();
        if log.errors > 0 {
            return Err(format!("{} departures failed to start", log.errors));
        }
        if w.in_flight_count() != 0 || self.sim.pending() != 0 {
            return Err(format!(
                "{} migrations still in flight",
                w.in_flight_count()
            ));
        }
        let attempted: usize = log.departed.iter().map(Vec::len).sum();
        let completed = self.window_log().len();
        let rolled_back = self.base.delta(w.metrics(), "migration.rollbacks") as usize;
        if completed + rolled_back != attempted {
            return Err(format!(
                "{completed} completed + {rolled_back} rolled back != {attempted} attempted"
            ));
        }
        for &app in &self.apps {
            let player = w.app(app).map_err(|e| e.to_string())?;
            if player.state != AppState::Running {
                return Err(format!("{app:?} ended {:?}", player.state));
            }
        }
        registry_gate(w)
    }

    fn outcome(&self) -> Outcome {
        let w = &self.world;
        let log = self.window_log();
        let departed = &self.log.borrow().departed;
        // A trip's trigger is the player's latest departure before it
        // completed.
        let follow_ms = log
            .iter()
            .filter_map(|r| {
                let times = &departed[r.app.0 as usize];
                let k = times.partition_point(|t| *t <= r.completed_at);
                let trigger = *times.get(k.checked_sub(1)?)?;
                Some(r.completed_at.saturating_since(trigger).as_millis_f64())
            })
            .collect();
        Outcome {
            attempted: departed.iter().map(|d| d.len() as u64).sum(),
            completed: log.len() as u64,
            migration_ms: log
                .iter()
                .map(|r| r.phases.total().as_millis_f64())
                .collect(),
            follow_ms,
            shipped_kib: shipped_kib(log),
            digest: log_digest(w, self.sim.executed()),
        }
    }

    fn counts(&self) -> Vec<Row> {
        let w = &self.world;
        let mut rows: Vec<Row> = [
            "context.published",
            "context.notices",
            "context.notice_useful_ratio",
            "aa.decisions",
            "aa.declined",
        ]
        .into_iter()
        .map(|name| (name, 0.0))
        .collect();
        let departures = self
            .log
            .borrow()
            .departed
            .iter()
            .map(Vec::len)
            .sum::<usize>();
        rows.extend([
            // Each departure plans against the destination's registry once,
            // and each check-in rewrites the application's record.
            ("registry.lookups", departures as f64),
            ("registry.app_writes", self.window_log().len() as f64),
            ("topology.distinct_pairs", 2.0),
        ]);
        let events = self.sim.executed() - self.window_start;
        rows.extend(mw_counts(w, self.window_log(), &self.base, events));
        rows
    }

    fn replay(&self) -> Vec<Row> {
        let w = &self.world;
        let mut rows: Vec<Row> = [
            "aa.decide_us",
            "reasoner.facts_derived",
            "context.sense_round_us",
        ]
        .into_iter()
        .map(|name| (name, 0.0))
        .collect();
        let space = |h: HostId| SpaceId(u32::from(h == AWAY));
        let mut at = vec![HOME; self.apps.len()];
        let lookups: Vec<(SpaceId, SpaceId, HostId, &str)> = w
            .migration_log()
            .iter()
            .map(|r| {
                let src = std::mem::replace(&mut at[r.app.0 as usize], r.dest_host);
                (
                    space(src),
                    space(r.dest_host),
                    r.dest_host,
                    r.app_name.as_str(),
                )
            })
            .take(REPLAY_CAP)
            .collect();
        rows.extend(replay::registry_rows(&w.federation, &lookups));
        let sets: Vec<&ComponentSet> = w.apps().map(|a| &a.components).take(REPLAY_CAP).collect();
        rows.extend(replay::wire_rows(&sets));
        let pairs = [(HOME, AWAY), (AWAY, HOME)];
        rows.extend(replay::route_rows(&pairs, || layout().topology().ok()));
        rows
    }
}
