//! Pins the simulation of the migration data path.
//!
//! A toy-size copy of bench-city's `migration-burst` world: two Fig. 8
//! media players shuttle between two rooms with `migrate_now`, eight
//! departures each, with the component cache and delta snapshots on and
//! every link dropping 10% of transfers, after one fault-free warm-up
//! round trip. At two seeds the test pins what the run produced: the
//! migration log, the executed-event count and the retry, rollback and
//! delta-resend counters. A speed-up of the data path must leave all of
//! them equal; only a change that sets out to change the simulation may
//! re-pin them, and says why.

use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DataPathOptions,
    DeviceProfile, FaultOptions, Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimRng, SimTime, Simulator};

const PLAYERS: u32 = 2;
const TRIPS: u32 = 8;
const DROP_PROBABILITY: f64 = 0.1;
const PERIOD: SimDuration = SimDuration::from_secs(20);
const JITTER_MS: u64 = 2_000;
const WARMUP: SimDuration = SimDuration::from_secs(1);
const HOME: HostId = HostId(0);
const AWAY: HostId = HostId(2);

/// One scheduled departure: when, which player, which binding policy and
/// the playback position written into the player's state first.
type Trip = (SimTime, u32, BindingPolicy, u64);

/// The departure schedule and the fault seed, drawn as the benchmark
/// draws them.
fn inputs(seed: u64) -> (Vec<Trip>, u64) {
    let mut rng = SimRng::seed_from(seed ^ 0xB0B5_7A11);
    let slot = PERIOD.as_micros() / u64::from(PLAYERS);
    let mut trips = Vec::new();
    for app in 0..PLAYERS {
        let first_static = app % 2 == 0;
        for k in 0..TRIPS {
            let start =
                WARMUP.as_micros() + u64::from(k) * PERIOD.as_micros() + u64::from(app) * slot;
            let at = SimTime::ZERO
                + SimDuration::from_micros(start)
                + SimDuration::from_millis(rng.uniform_u64(0, JITTER_MS));
            let policy = if (k % 2 == 0) == first_static {
                BindingPolicy::Static
            } else {
                BindingPolicy::Adaptive
            };
            trips.push((at, app, policy, rng.uniform_u64(0, 240_000)));
        }
    }
    trips.sort_by_key(|&(at, app, _, _)| (at, app));
    (trips, rng.uniform_u64(0, u64::MAX))
}

fn player() -> ComponentSet {
    [
        Component::synthetic("codec", ComponentKind::Logic, 180_000),
        Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("music-file", ComponentKind::Data, 4_300_000),
    ]
    .into_iter()
    .collect()
}

/// Home PC and a gateway PC in room a, the away PC across the gateway.
fn world(fault_seed: u64) -> (Middleware, Simulator<Middleware>) {
    let mut b = Middleware::builder();
    let room_a = b.space("room-a");
    let room_b = b.space("room-b");
    let home = b.host("p4-1.7ghz", room_a, CpuFactor::new(1.0), DeviceProfile::pc);
    let gw = b.host("gw", room_a, CpuFactor::new(1.0), DeviceProfile::pc);
    let away = b.host("pm-1.6ghz", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
    b.link(
        home,
        gw,
        SimDuration::from_millis(1),
        10_000_000,
        0.8,
        false,
    )
    .unwrap();
    b.link(gw, away, SimDuration::from_millis(5), 10_000_000, 0.7, true)
        .unwrap();
    b.seed(fault_seed)
        .data_path(DataPathOptions::all())
        .faults(FaultOptions::with_drop_probability(DROP_PROBABILITY));
    b.build()
}

/// What a run produced.
#[derive(Debug, PartialEq)]
struct Run {
    /// `(app, dest_host, completed_at µs, shipped_bytes)` per migration,
    /// warm-up included.
    log: Vec<(u32, u32, u64, u64)>,
    executed: u64,
    retries: u64,
    rollbacks: u64,
    delta_resends: u64,
}

fn run(seed: u64) -> Run {
    let (trips, fault_seed) = inputs(seed);
    let (mut world, mut sim) = world(fault_seed);
    let mut apps: Vec<AppId> = Vec::new();
    for a in 0..PLAYERS {
        let name = format!("smart-media-player-{a}");
        let app = Middleware::deploy_app(
            &mut world,
            &mut sim,
            &name,
            HOME,
            player(),
            UserProfile::new(UserId(a)),
        )
        .unwrap();
        let ui = Component::synthetic("player-ui", ComponentKind::Presentation, 60_000);
        world
            .provision(AWAY, &name, [ui].into_iter().collect())
            .unwrap();
        let coordinator = &mut world.app_mut(app).unwrap().coordinator;
        for i in 0..64 {
            coordinator.set_state(format!("playlist-{i:02}"), format!("track-{i:02}.mp3"));
        }
        apps.push(app);
    }
    world.faults_mut().set_options(FaultOptions::default());
    for dest in [AWAY, HOME] {
        for &app in &apps {
            Middleware::migrate_now(
                &mut world,
                &mut sim,
                app,
                dest,
                MobilityMode::FollowMe,
                BindingPolicy::Static,
            )
            .unwrap();
        }
        sim.run(&mut world);
    }
    world
        .faults_mut()
        .set_options(FaultOptions::with_drop_probability(DROP_PROBABILITY));
    let offset = sim.now().saturating_since(SimTime::ZERO);
    for (at, player, policy, position_ms) in trips {
        let app = apps[player as usize];
        sim.schedule_at(at + offset, move |w: &mut Middleware, sim| {
            let here = w.app(app).unwrap();
            // A player still retrying its last trip sits this slot out.
            if here.state != AppState::Running {
                return;
            }
            let dest = if here.host == HOME { AWAY } else { HOME };
            let position = position_ms.to_string();
            Middleware::update_app_state(w, sim, app, "position-ms", &position).unwrap();
            Middleware::migrate_now(w, sim, app, dest, MobilityMode::FollowMe, policy).unwrap();
        });
    }
    sim.run(&mut world);
    let metrics = world.metrics();
    assert!(
        metrics.counter("migration.bytes_saved_delta") > 0,
        "the run must ship snapshot deltas"
    );
    Run {
        log: world
            .migration_log()
            .iter()
            .map(|r| {
                (
                    r.app.0,
                    r.dest_host.0,
                    r.completed_at.as_micros(),
                    r.shipped_bytes,
                )
            })
            .collect(),
        executed: sim.executed(),
        retries: metrics.counter("migration.retries"),
        rollbacks: metrics.counter("migration.rollbacks"),
        delta_resends: metrics.counter("migration.delta_resends"),
    }
}

#[test]
fn seed_1_simulation_is_pinned() {
    let run = run(1);
    assert_eq!(
        run.log,
        [
            (0, 2, 6_663_908, 4_481_712),
            (1, 2, 6_663_908, 4_481_712),
            (0, 0, 13_411_798, 4_541_707),
            (1, 0, 13_411_798, 4_541_707),
            (0, 2, 17_284_719, 1_741),
            (1, 2, 26_337_166, 1_713),
            (0, 0, 37_005_207, 1_713),
            (1, 0, 46_283_032, 1_710),
            (0, 2, 56_212_980, 132),
            (1, 2, 65_273_980, 132),
            (0, 0, 75_682_193, 132),
            (1, 0, 85_312_577, 133),
            (0, 2, 95_110_980, 132),
            (1, 2, 104_857_982, 133),
            (0, 0, 116_930_953, 132),
            (1, 0, 124_788_198, 134),
            (0, 2, 136_387_980, 132),
            (1, 2, 145_385_978, 131),
            (0, 0, 155_502_193, 132),
            (1, 0, 166_195_195, 133),
        ]
    );
    assert_eq!(
        (run.executed, run.retries, run.rollbacks, run.delta_resends),
        (138, 6, 0, 0)
    );
}

/// A seed whose drops exhaust two flights' retries, so the fault layer's
/// rollback restores from the retained snapshot twice.
#[test]
fn seed_112_simulation_with_rollbacks_is_pinned() {
    let run = run(112);
    assert_eq!(
        run.log,
        [
            (0, 2, 6_663_908, 4_481_712),
            (1, 2, 6_663_908, 4_481_712),
            (0, 0, 13_411_798, 4_541_707),
            (1, 0, 13_411_798, 4_541_707),
            (0, 2, 15_124_891, 1_741),
            (1, 2, 25_159_396, 1_712),
            (0, 0, 36_767_439, 1_713),
            (1, 0, 46_417_032, 1_710),
            (0, 2, 56_824_734, 131),
            (1, 2, 66_069_980, 132),
            (0, 0, 76_371_193, 132),
            (1, 0, 106_924_573, 132),
            (0, 2, 115_112_980, 132),
            (1, 2, 124_950_980, 132),
            (0, 0, 135_352_191, 131),
            (1, 0, 145_534_573, 132),
            (0, 2, 155_493_985, 134),
            (1, 2, 166_534_980, 132),
        ]
    );
    assert_eq!(
        (run.executed, run.retries, run.rollbacks, run.delta_resends),
        (148, 8, 2, 0)
    );
}
