//! `city-day`: the paper's whole path at city size.
//!
//! A grid of smart spaces, each with a primary PC and a second PC on its
//! LAN, joined by gateway links between the primaries. Every user wears a
//! badge and owns an application (logic, UI, data) watched by an adaptive
//! autonomous agent. The seeded commute schedule moves badges with
//! `move_user`; the sensing loop notices, the context kernel fuses and
//! multicasts, the AA reasons over the Fig. 6 rules, the registry says
//! what the destination holds, and the mobile agent wraps, ships and
//! checks the application in. Builder defaults stay on: sensing every
//! 200 ms, trace and telemetry, the standard layer stack.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;

use mdagent_context::{topics, BadgeId, TemporalClass, UserId};
use mdagent_core::{
    AppId, AppState, AutonomousAgent, BindingPolicy, Component, ComponentKind, ComponentSet,
    DecisionEngine, Middleware, MigrationReport, UserProfile, PAPER_RULES,
};
use mdagent_simnet::{
    AttrValue, HostId, SimDuration, SimRng, SimTime, Simulator, SpaceId, TraceEvent,
};

use crate::common::{
    per_call_s, ratio, Baseline, Fnv, Layer, Layout, LinkSpec, Outcome, Probe, Row, Scenario,
    REPLAY_CAP,
};
use crate::replay;

/// Size of one city-day world.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Grid side: `side * side` spaces.
    pub side: u32,
    /// Users, each with a badge, an application and an AA.
    pub users: u32,
    /// Length of the commute schedule after warm-up.
    pub moves_for: SimDuration,
    /// Range of one user's gap between moves, in seconds.
    pub gap_s: (u64, u64),
}

/// The benchmark's size: 64 spaces, 512 users, 3 simulated minutes with
/// each user moving about every 40 s (some 2,300 migrations).
pub const FULL: Params = Params {
    side: 8,
    users: 512,
    moves_for: SimDuration::from_secs(180),
    gap_s: (20, 60),
};

/// The self-test's size.
pub const TOY: Params = Params {
    side: 3,
    users: 12,
    moves_for: SimDuration::from_secs(120),
    gap_s: (20, 40),
};

/// The middleware builder's default sensing period.
pub const SENSE_PERIOD: SimDuration = SimDuration::from_millis(200);
/// Set-up runs the world this long, so initial locations are fused and
/// delivered before the timed window starts.
const WARMUP: SimDuration = SimDuration::from_secs(1);
/// After the last move the window runs this long so every migration lands.
const DRAIN: SimDuration = SimDuration::from_secs(20);

/// One badge move of the commute schedule.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    pub at: SimTime,
    pub user: u32,
    pub space: u32,
    pub position_m: f64,
    /// Seeds the application state written as the user moves: an edit
    /// buffer of `buffer_len` bytes, so snapshot sizes vary per move.
    pub state: u64,
    pub buffer_len: u32,
}

/// Largest edit buffer a move writes into the application's state.
const MAX_BUFFER: u64 = 64 * 1024;

/// Everything the seed generates for one city-day.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: Params,
    /// Initial space of each user (where its app is deployed).
    pub home: Vec<u32>,
    /// Space where each user's logic and UI are preinstalled.
    pub work: Vec<u32>,
    pub start_m: Vec<f64>,
    /// The commute schedule, by time.
    pub moves: Vec<Move>,
}

impl Inputs {
    pub fn generate(params: Params, seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from(seed ^ 0xC17D_A7E5);
        let spaces = u64::from(params.side * params.side);
        let other = |rng: &mut SimRng, not: u32| {
            ((u64::from(not) + rng.uniform_u64(1, spaces - 1)) % spaces) as u32
        };
        let mut inputs = Inputs {
            params,
            home: Vec::new(),
            work: Vec::new(),
            start_m: Vec::new(),
            moves: Vec::new(),
        };
        let start = SimTime::ZERO + WARMUP;
        let stop = start + params.moves_for;
        let (lo, hi) = (params.gap_s.0 * 1_000, params.gap_s.1 * 1_000);
        for user in 0..params.users {
            let home = rng.uniform_u64(0, spaces - 1) as u32;
            let work = other(&mut rng, home);
            inputs.home.push(home);
            inputs.work.push(work);
            inputs.start_m.push(rng.uniform_f64(0.5, 3.5));
            let mut here = home;
            let mut at = start + SimDuration::from_millis(rng.uniform_u64(0, hi));
            while at < stop {
                let pick = rng.unit_f64();
                let mut space = if pick < 0.4 {
                    home
                } else if pick < 0.8 {
                    work
                } else {
                    rng.uniform_u64(0, spaces - 1) as u32
                };
                if space == here {
                    space = other(&mut rng, here);
                }
                inputs.moves.push(Move {
                    at,
                    user,
                    space,
                    position_m: rng.uniform_f64(0.5, 3.5),
                    state: rng.uniform_u64(0, u64::MAX),
                    buffer_len: rng.uniform_u64(0, MAX_BUFFER) as u32,
                });
                here = space;
                at += SimDuration::from_millis(rng.uniform_u64(lo, hi));
            }
        }
        inputs.moves.sort_by_key(|m| (m.at, m.user));
        inputs
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for u in 0..self.home.len() {
            h.word(u64::from(self.home[u]))
                .word(u64::from(self.work[u]))
                .word(self.start_m[u].to_bits());
        }
        for m in &self.moves {
            h.word(m.at.as_micros())
                .word(u64::from(m.user))
                .word(u64::from(m.space))
                .word(m.position_m.to_bits())
                .word(m.state)
                .word(u64::from(m.buffer_len));
        }
        h.finish()
    }

    /// Each user's space once the schedule has run.
    fn final_space(&self) -> Vec<u32> {
        let mut space = self.home.clone();
        for m in &self.moves {
            space[m.user as usize] = m.space;
        }
        space
    }
}

/// Grid of `side * side` spaces: two PCs per space on a 10 Mbps LAN, and
/// gateway links between neighbouring primaries (the builder's
/// `ethernet` and `gateway` link classes).
pub fn layout(side: u32) -> Layout {
    let mut l = Layout::default();
    let primary = |r: u32, c: u32| 2 * (r * side + c);
    for r in 0..side {
        for c in 0..side {
            let s = r * side + c;
            l.spaces.push(format!("s{r}x{c}"));
            l.hosts.push((format!("s{r}x{c}-pc"), s, 1.0));
            l.hosts.push((format!("s{r}x{c}-pc2"), s, 0.9));
            l.links.push(LinkSpec {
                a: primary(r, c),
                b: primary(r, c) + 1,
                latency_ms: 1,
                bandwidth_bps: 10_000_000,
                efficiency: 0.8,
                gateway: false,
            });
        }
    }
    for r in 0..side {
        for c in 0..side {
            let mut gateway = |b: u32| {
                l.links.push(LinkSpec {
                    a: primary(r, c),
                    b,
                    latency_ms: 5,
                    bandwidth_bps: 10_000_000,
                    efficiency: 0.7,
                    gateway: true,
                })
            };
            if c + 1 < side {
                gateway(primary(r, c + 1));
            }
            if r + 1 < side {
                gateway(primary(r + 1, c));
            }
        }
    }
    l
}

fn components(data: bool) -> ComponentSet {
    let mut set: ComponentSet = [
        Component::synthetic("logic", ComponentKind::Logic, 180_000),
        Component::synthetic("ui", ComponentKind::Presentation, 60_000),
    ]
    .into_iter()
    .collect();
    if data {
        set.insert(Component::synthetic("data", ComponentKind::Data, 250_000));
    }
    set
}

/// Primary host of space `s` in [`layout`].
fn primary(s: u32) -> HostId {
    HostId(2 * s)
}

/// A built city-day world.
pub struct CityDay {
    world: Middleware,
    sim: Simulator<Middleware>,
    inputs: Rc<Inputs>,
    apps: Vec<AppId>,
    end: SimTime,
    window_start: u64,
    /// Trace entries recorded before the timed window.
    trace_start: usize,
    base: Baseline,
    /// Scheduled state updates that returned an error.
    driver_errors: Rc<Cell<u64>>,
}

impl CityDay {
    /// Set-up: topology, users, `deploy_app`, provisioning, AA spawn, the
    /// commute schedule, and warm-up through the first sensing rounds.
    pub fn build(inputs: Rc<Inputs>, seed: u64) -> Result<CityDay, String> {
        let p = inputs.params;
        let mut b = Middleware::builder();
        layout(p.side).apply(&mut b).map_err(|e| e.to_string())?;
        b.seed(seed);
        let (mut world, mut sim) = b.build();
        let mut apps = Vec::with_capacity(p.users as usize);
        for u in 0..p.users {
            let (home, work) = (inputs.home[u as usize], inputs.work[u as usize]);
            let profile = UserProfile::new(UserId(u));
            world.attach_user(
                profile.clone(),
                BadgeId(u),
                SpaceId(home),
                inputs.start_m[u as usize],
            );
            let name = format!("app-{u}");
            let app = Middleware::deploy_app(
                &mut world,
                &mut sim,
                &name,
                primary(home),
                components(true),
                profile,
            )
            .map_err(|e| e.to_string())?;
            world
                .provision(primary(work), &name, components(false))
                .map_err(|e| e.to_string())?;
            let aa = AutonomousAgent::new(UserId(u), app, BindingPolicy::Adaptive);
            Middleware::spawn_autonomous_agent(&mut world, &mut sim, primary(home), aa)
                .map_err(|e| e.to_string())?;
            apps.push(app);
        }
        let driver_errors = Rc::new(Cell::new(0));
        for m in &inputs.moves {
            let (app, errors, m) = (apps[m.user as usize], Rc::clone(&driver_errors), *m);
            sim.schedule_at(m.at, move |w: &mut Middleware, sim| {
                let mut buffer = format!("{:016x}", m.state).repeat(m.buffer_len as usize / 16 + 1);
                buffer.truncate(m.buffer_len as usize);
                if Middleware::update_app_state(w, sim, app, "buffer", &buffer).is_err() {
                    errors.set(errors.get() + 1);
                }
                w.move_user(BadgeId(m.user), SpaceId(m.space), m.position_m);
            });
        }
        Middleware::start_sensing(&mut world, &mut sim);
        sim.run_until(&mut world, SimTime::ZERO + WARMUP);
        let end = SimTime::ZERO + WARMUP + p.moves_for + DRAIN;
        let base = Baseline::take(world.metrics());
        let window_start = sim.executed();
        let trace_start = world.trace().entries().len();
        Ok(CityDay {
            world,
            sim,
            inputs,
            apps,
            end,
            window_start,
            trace_start,
            base,
            driver_errors,
        })
    }

    /// `(source, destination)` hosts of every completed migration, in log
    /// order.
    fn hops(&self) -> Vec<(HostId, HostId)> {
        let mut at: Vec<HostId> = self.inputs.home.iter().map(|s| primary(*s)).collect();
        self.world
            .migration_log()
            .iter()
            .map(|r| {
                (
                    std::mem::replace(&mut at[r.app.0 as usize], r.dest_host),
                    r.dest_host,
                )
            })
            .collect()
    }
}

impl Scenario for CityDay {
    type World = Middleware;

    fn parts(&mut self) -> (&mut Middleware, &mut Simulator<Middleware>) {
        (&mut self.world, &mut self.sim)
    }

    fn window_end(&self) -> SimTime {
        self.end
    }

    fn run_window(&mut self) {
        self.sim.run_until(&mut self.world, self.end);
    }

    fn probe(&self) -> Probe {
        mw_probe(&self.world)
    }

    fn trace_layer(&self, before: &Probe, after: &Probe) -> Option<Layer> {
        mw_trace_layer(&self.world, before, after)
    }

    /// Every badge sits within range of its space's one beacon, so a round
    /// reads one distance per badge placed in the field.
    fn readings_per_round(&self) -> f64 {
        let mut rng = SimRng::seed_from(0);
        self.world.kernel.field.sample(self.end, &mut rng).len() as f64
    }

    fn gate(&self) -> Result<(), String> {
        let w = &self.world;
        if self.driver_errors.get() > 0 {
            return Err(format!("{} state updates failed", self.driver_errors.get()));
        }
        if w.in_flight_count() != 0 {
            return Err(format!(
                "{} migrations still in flight",
                w.in_flight_count()
            ));
        }
        for (u, want) in self.inputs.final_space().into_iter().enumerate() {
            let app = w.app(self.apps[u]).map_err(|e| e.to_string())?;
            let space = w.space_of(app.host).map_err(|e| e.to_string())?;
            if space != SpaceId(want) || app.state != AppState::Running {
                return Err(format!(
                    "app of user {u} is {:?} in {space:?}, the user is in space {want}",
                    app.state
                ));
            }
        }
        registry_gate(w)
    }

    fn outcome(&self) -> Outcome {
        let log = self.world.migration_log();
        // Each log entry answers its user's latest move before completion.
        let mut moves_of: Vec<Vec<SimTime>> = vec![Vec::new(); self.apps.len()];
        for m in &self.inputs.moves {
            moves_of[m.user as usize].push(m.at);
        }
        let follow_ms = log
            .iter()
            .filter_map(|r| {
                let moves = &moves_of[r.app.0 as usize];
                let k = moves.partition_point(|t| *t <= r.completed_at);
                let trigger = *moves.get(k.checked_sub(1)?)?;
                Some(r.completed_at.saturating_since(trigger).as_millis_f64())
            })
            .collect();
        Outcome {
            attempted: self.inputs.moves.len() as u64,
            completed: log.len() as u64,
            migration_ms: log
                .iter()
                .map(|r| r.phases.total().as_millis_f64())
                .collect(),
            follow_ms,
            shipped_kib: shipped_kib(log),
            digest: log_digest(&self.world, self.sim.executed()),
        }
    }

    fn counts(&self) -> Vec<Row> {
        let w = &self.world;
        let (m, b) = (w.metrics(), &self.base);
        let published = w.kernel.bus.published_count() as f64;
        // Each fused event the sensing loop published, with the number of
        // AAs the bus routed it to, as the trace recorded them. An event
        // concerns one user, so only that user's AA can use it.
        let (events, notices) = w.trace().entries()[self.trace_start..]
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::ContextEvent { subscribers, .. } => Some(*subscribers as f64),
                _ => None,
            })
            .fold((0.0, 0.0), |(n, sum), k| (n + 1.0, sum + k));
        let deliberations = b.samples(m, "aa.deliberation");
        let pairs: BTreeSet<(HostId, HostId)> = self.hops().into_iter().collect();
        let mut rows = vec![
            ("context.published", published),
            ("context.notices", notices),
            ("context.notice_useful_ratio", ratio(events, notices)),
            (
                "aa.decisions",
                deliberations
                    + b.delta(m, "aa.migration_declined")
                    + b.delta(m, "aa.device_incompatible"),
            ),
            ("aa.declined", b.delta(m, "aa.migration_declined")),
            // Each follow-me plan looks the destination up once, and each
            // check-in rewrites the application's record.
            ("registry.lookups", deliberations),
            ("registry.app_writes", w.migration_log().len() as f64),
            ("topology.distinct_pairs", pairs.len() as f64),
        ];
        rows.extend(mw_counts(
            w,
            w.migration_log(),
            b,
            self.sim.executed() - self.window_start,
        ));
        rows
    }

    fn replay(&self) -> Vec<Row> {
        let w = &self.world;
        let mut rows = Vec::new();

        // AA: the run's own decisions, read back from their spans.
        let decisions: Vec<(HostId, HostId, f64)> = w
            .telemetry()
            .spans_named("aa.decision")
            .filter_map(|s| {
                match (
                    s.attr("src_host"),
                    s.attr("dest_host"),
                    s.attr("response_time_ms"),
                ) {
                    (
                        Some(AttrValue::U64(a)),
                        Some(AttrValue::U64(b)),
                        Some(AttrValue::F64(rt)),
                    ) => Some((HostId(*a as u32), HostId(*b as u32), *rt)),
                    _ => None,
                }
            })
            .take(REPLAY_CAP)
            .collect();
        let mut engine = DecisionEngine::new(PAPER_RULES);
        let mut derived = 0usize;
        let decide_s = per_call_s(decisions.len(), || {
            derived = 0;
            for &(a, b, rt) in &decisions {
                black_box(engine.decide(a, b, "printer", rt));
                derived += engine.last_stats().facts_derived;
            }
        });
        rows.push(("aa.decide_us", decide_s * 1e6));
        rows.push(("reasoner.facts_derived", derived as f64));

        // Registry: the run's destination lookups and check-in writes.
        let space = |h: HostId| SpaceId(h.0 / 2);
        let lookups: Vec<(SpaceId, SpaceId, HostId, &str)> = self
            .hops()
            .into_iter()
            .zip(w.migration_log())
            .map(|((src, dest), r)| (space(src), space(dest), dest, r.app_name.as_str()))
            .take(REPLAY_CAP)
            .collect();
        rows.extend(replay::registry_rows(&w.federation, &lookups));

        // Wire: every application's final component set.
        let sets: Vec<&ComponentSet> = w.apps().map(|a| &a.components).take(REPLAY_CAP).collect();
        rows.extend(replay::wire_rows(&sets));

        // Topology: the run's host pairs on a fresh route cache, then warm.
        let pairs: Vec<(HostId, HostId)> = self
            .hops()
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .take(REPLAY_CAP)
            .collect();
        let side = self.inputs.params.side;
        rows.extend(replay::route_rows(&pairs, || layout(side).topology().ok()));

        // Sensing: the run's final badge placements and subscriber count.
        rows.push(("context.sense_round_us", replay::sense_round_s(w) * 1e6));
        rows
    }
}

/// Every registry center must have kept its closure incrementally.
pub fn registry_gate(w: &Middleware) -> Result<(), String> {
    for space in w.federation.spaces() {
        let full = w
            .federation
            .center(space)
            .map_or(0, |c| c.full_materializations());
        if full != 0 {
            return Err(format!(
                "registry {space:?} ran {full} full materializations"
            ));
        }
    }
    Ok(())
}

/// The layer owning the trace events recorded between two probes: the
/// migration pipeline's events belong to `ma`, decisions to `aa`, fused
/// and published context to `context`.
pub fn mw_trace_layer(w: &Middleware, before: &Probe, after: &Probe) -> Option<Layer> {
    let new = w
        .trace()
        .entries()
        .get(before.trace_len as usize..after.trace_len as usize)?;
    let layer = |kind: &str| match kind {
        "suspend" | "snapshot_clone" | "wrap" | "check_out" | "clone_dispatch" | "check_in"
        | "check_in_failed" | "restore" | "resumed" | "replica_installed" | "replica_running"
        | "transfer_dropped" | "transfer_blocked" | "migration_retry" | "migration_aborted"
        | "snapshot_resend" => Some(Layer::Ma),
        "decide_follow_me" | "decide_clone" | "decline_no_move" | "decline_device" | "no_host"
        | "prestage" => Some(Layer::Aa),
        "context_event" | "published" => Some(Layer::Context),
        _ => None,
    };
    let layers: Vec<Layer> = new.iter().filter_map(|e| layer(e.event.kind())).collect();
    [Layer::Ma, Layer::Aa, Layer::Context]
        .into_iter()
        .find(|l| layers.contains(l))
}

fn raw_reading_at(w: &Middleware) -> u64 {
    w.kernel
        .classifier
        .db(TemporalClass::Dynamic)
        .latest(topics::RAW_DISTANCE)
        .map_or(0, |e| e.at.as_micros())
}

/// Probe of a middleware world's public state (see [`Probe`]).
pub fn mw_probe(w: &Middleware) -> Probe {
    let m = w.metrics();
    Probe {
        ma: [
            m.counter("platform.moves"),
            w.in_flight_count() as u64,
            w.migration_log().len() as u64,
            m.counter("migration.retries"),
            m.counter("migration.rollbacks"),
        ],
        aa: [
            m.durations("aa.deliberation")
                .map_or(0, |d| d.count() as u64),
            m.counter("aa.migration_declined"),
            m.counter("aa.device_incompatible"),
        ],
        context: [w.kernel.bus.published_count(), raw_reading_at(w)],
        agent: [m.counter("acl.delivered"), 0, 0, 0],
        trace_len: w.trace().entries().len() as u64,
    }
}

/// Digest over the migration log (app, destination, completion instant,
/// shipped bytes) and the executed event count.
pub fn log_digest(w: &Middleware, executed: u64) -> u64 {
    let mut h = Fnv::default();
    for r in w.migration_log() {
        h.word(u64::from(r.app.0))
            .word(u64::from(r.dest_host.0))
            .word(r.completed_at.as_micros())
            .word(r.shipped_bytes);
    }
    h.word(executed).finish()
}

/// Mean KiB carried per logged migration.
pub fn shipped_kib(log: &[MigrationReport]) -> f64 {
    let bytes: u64 = log.iter().map(|r| r.shipped_bytes).sum();
    ratio(bytes as f64, log.len() as f64) / 1024.0
}

/// Counts every middleware workload reads the same way; `log` is the
/// migration log of the timed window.
pub fn mw_counts(w: &Middleware, log: &[MigrationReport], b: &Baseline, events: u64) -> Vec<Row> {
    let m = w.metrics();
    let hits = b.delta(m, "migration.cache_hits");
    let misses = b.delta(m, "migration.cache_misses");
    let full: usize = w
        .federation
        .spaces()
        .into_iter()
        .filter_map(|s| w.federation.center(s))
        .map(|c| c.full_materializations())
        .sum();
    vec![
        ("agent.acl_sent", b.delta(m, "acl.sent")),
        ("agent.acl_delivered", b.delta(m, "acl.delivered")),
        ("agent.acl_bytes", b.delta(m, "acl.bytes_sent")),
        ("agent.moves", b.delta(m, "platform.moves")),
        ("agent.move_bytes", b.delta(m, "platform.move_bytes")),
        ("registry.full_materializations", full as f64),
        ("ma.completed", log.len() as f64),
        ("ma.retries", b.delta(m, "migration.retries")),
        ("ma.rollbacks", b.delta(m, "migration.rollbacks")),
        (
            "ma.shipped_bytes",
            log.iter().map(|r| r.shipped_bytes as f64).sum(),
        ),
        (
            "ma.bytes_saved_cache",
            b.delta(m, "migration.bytes_saved_cache"),
        ),
        ("ma.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "wire.bytes_encoded",
            b.delta(m, "acl.bytes_sent") + b.delta(m, "platform.move_bytes"),
        ),
        ("sim.events", events as f64),
        ("obs.trace_events", w.trace().entries().len() as f64),
        ("obs.spans", w.telemetry().spans().len() as f64),
        ("obs.counter_series", m.counters().count() as f64),
    ]
}
