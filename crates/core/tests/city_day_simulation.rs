//! Pins the simulation of the follow-me path.
//!
//! A toy-size copy of bench-city's `city-day` world, built as its
//! `CityDay::build` builds the `TOY` size: a 3×3 grid of smart spaces with
//! two PCs each, twelve badge-wearing users, each owning an application
//! watched by an adaptive autonomous agent, and the builder's default
//! sensing. A seeded commute schedule writes an edit buffer of 0–64 KiB
//! into the application's state with `update_app_state`, then moves the
//! user's badge with `move_user`; sensing, fusion, the AA's rules, the
//! registry and the mobile agent do the rest, with the data path off. At
//! two seeds the test pins what the run produced: the migration log, the
//! executed-event count and the number of AA deliberations. A speed-up of
//! this path must leave all of them equal; only a change that sets out to
//! change the simulation may re-pin them, and says why. The seed-1 log and
//! event count hash, by bench-city's `log_digest`, to the city-day outcome
//! digest its `--self-test` prints (`1e0cf9bd60fb45e9`).

use mdagent_context::{BadgeId, UserId};
use mdagent_core::{
    AppId, AppState, AutonomousAgent, BindingPolicy, Component, ComponentKind, ComponentSet,
    DeviceProfile, Middleware, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimRng, SimTime, SpaceId};

/// Grid side: `SIDE * SIDE` spaces.
const SIDE: u32 = 3;
const USERS: u32 = 12;
const MOVES_FOR: SimDuration = SimDuration::from_secs(120);
/// Range of one user's gap between moves, in seconds.
const GAP_S: (u64, u64) = (20, 40);
const WARMUP: SimDuration = SimDuration::from_secs(1);
const DRAIN: SimDuration = SimDuration::from_secs(20);
/// Largest edit buffer a move writes into the application's state.
const MAX_BUFFER: u64 = 64 * 1024;

/// One badge move: when, whose, to which space and position, and the
/// seed and length of the edit buffer written first.
#[derive(Debug, Clone, Copy)]
struct Move {
    at: SimTime,
    user: u32,
    space: u32,
    position_m: f64,
    state: u64,
    buffer_len: u32,
}

/// Each user's home and work space, starting position, and the commute
/// schedule, drawn as the benchmark draws them.
struct Inputs {
    home: Vec<u32>,
    work: Vec<u32>,
    start_m: Vec<f64>,
    moves: Vec<Move>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SimRng::seed_from(seed ^ 0xC17D_A7E5);
    let spaces = u64::from(SIDE * SIDE);
    let other = |rng: &mut SimRng, not: u32| {
        ((u64::from(not) + rng.uniform_u64(1, spaces - 1)) % spaces) as u32
    };
    let mut inputs = Inputs {
        home: Vec::new(),
        work: Vec::new(),
        start_m: Vec::new(),
        moves: Vec::new(),
    };
    let start = SimTime::ZERO + WARMUP;
    let stop = start + MOVES_FOR;
    let (lo, hi) = (GAP_S.0 * 1_000, GAP_S.1 * 1_000);
    for user in 0..USERS {
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

/// Primary PC of space `s`: each space adds a primary and a second PC.
fn primary(s: u32) -> HostId {
    HostId(2 * s)
}

/// What a run produced.
#[derive(Debug, PartialEq)]
struct Run {
    /// `(app, dest_host, completed_at µs, shipped_bytes)` per migration.
    log: Vec<(u32, u32, u64, u64)>,
    executed: u64,
    deliberations: usize,
}

fn run(seed: u64) -> Run {
    let inputs = inputs(seed);
    let mut b = Middleware::builder();
    // Spaces, then two PCs per space on a 10 Mbps LAN, then gateway links
    // from each primary to its right and lower neighbours, in the
    // benchmark's order.
    let name = |s: u32| format!("s{}x{}", s / SIDE, s % SIDE);
    let spaces: Vec<SpaceId> = (0..SIDE * SIDE).map(|s| b.space(&name(s))).collect();
    let mut hosts = Vec::new();
    for (s, &space) in (0..).zip(&spaces) {
        for (pc, cpu) in [("pc", 1.0), ("pc2", 0.9)] {
            let host = format!("{}-{pc}", name(s));
            hosts.push(b.host(&host, space, CpuFactor::new(cpu), DeviceProfile::pc));
        }
    }
    let ms = SimDuration::from_millis;
    for pair in hosts.chunks(2) {
        b.link(pair[0], pair[1], ms(1), 10_000_000, 0.8, false)
            .unwrap();
    }
    for s in 0..SIDE * SIDE {
        let right = (s % SIDE + 1 < SIDE).then_some(s + 1);
        let down = (s / SIDE + 1 < SIDE).then_some(s + SIDE);
        for n in [right, down].into_iter().flatten() {
            b.link(primary(s), primary(n), ms(5), 10_000_000, 0.7, true)
                .unwrap();
        }
    }
    b.seed(seed);
    let (mut world, mut sim) = b.build();

    let mut apps: Vec<AppId> = Vec::new();
    for u in 0..USERS {
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
        .unwrap();
        world
            .provision(primary(work), &name, components(false))
            .unwrap();
        let aa = AutonomousAgent::new(UserId(u), app, BindingPolicy::Adaptive);
        Middleware::spawn_autonomous_agent(&mut world, &mut sim, primary(home), aa).unwrap();
        apps.push(app);
    }
    for m in &inputs.moves {
        let (app, m) = (apps[m.user as usize], *m);
        sim.schedule_at(m.at, move |w: &mut Middleware, sim| {
            let mut buffer = format!("{:016x}", m.state).repeat(m.buffer_len as usize / 16 + 1);
            buffer.truncate(m.buffer_len as usize);
            Middleware::update_app_state(w, sim, app, "buffer", &buffer).unwrap();
            w.move_user(BadgeId(m.user), SpaceId(m.space), m.position_m);
        });
    }
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::ZERO + WARMUP + MOVES_FOR + DRAIN);

    // Every migration landed, and each app followed its user.
    assert_eq!(world.in_flight_count(), 0);
    let mut last = inputs.home.clone();
    for m in &inputs.moves {
        last[m.user as usize] = m.space;
    }
    for (u, &space) in last.iter().enumerate() {
        let app = world.app(apps[u]).unwrap();
        assert_eq!(app.state, AppState::Running, "user {u}");
        assert_eq!(world.space_of(app.host), Ok(SpaceId(space)), "user {u}");
    }
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
        deliberations: world
            .metrics()
            .durations("aa.deliberation")
            .map_or(0, |d| d.count()),
    }
}

#[test]
fn seed_1_simulation_is_pinned() {
    let run = run(1);
    assert_eq!(
        run.log,
        [
            (1, 2, 2_820_216, 270_574),
            (6, 14, 5_573_973, 248_984),
            (0, 10, 9_477_245, 29_530),
            (5, 4, 10_022_744, 283_261),
            (3, 8, 12_544_964, 293_423),
            (9, 2, 14_059_050, 297_867),
            (4, 0, 18_069_587, 305_273),
            (1, 0, 24_030_224, 263_565),
            (11, 8, 32_275_374, 244_514),
            (2, 4, 36_016_185, 63_542),
            (8, 2, 37_561_373, 304_955),
            (4, 2, 37_743_860, 62_312),
            (7, 4, 38_073_252, 243_023),
            (9, 12, 38_385_615, 25_498),
            (10, 14, 38_690_580, 14_587),
            (5, 6, 38_880_855, 302_917),
            (0, 12, 41_611_244, 261_136),
            (3, 16, 43_717_145, 256_257),
            (6, 10, 44_708_572, 9_863),
            (1, 10, 61_568_648, 22_803),
            (9, 10, 65_687_812, 304_236),
            (8, 10, 66_095_306, 240_909),
            (11, 0, 68_335_713, 269_300),
            (6, 16, 69_870_152, 291_627),
            (3, 0, 70_895_245, 244_634),
            (4, 14, 72_108_342, 250_070),
            (2, 0, 74_543_798, 274_989),
            (7, 8, 74_764_566, 289_585),
            (10, 10, 76_365_582, 290_292),
            (0, 10, 76_387_468, 240_855),
            (5, 16, 78_629_558, 278_913),
            (11, 6, 88_508_350, 33_786),
            (9, 4, 88_633_348, 265_761),
            (6, 10, 96_421_776, 254_057),
            (0, 4, 97_222_975, 258_470),
            (1, 4, 98_071_989, 285_776),
            (3, 16, 98_682_283, 251_143),
            (7, 16, 102_174_781, 305_242),
            (4, 2, 103_537_364, 270_467),
            (8, 6, 105_316_101, 19_467),
            (10, 6, 105_369_785, 293_246),
            (5, 8, 108_041_013, 61_482),
            (2, 4, 111_502_846, 254_685),
            (9, 12, 111_558_136, 304_453),
            (11, 4, 117_601_836, 247_371),
            (6, 0, 118_620_356, 267_540),
        ]
    );
    assert_eq!((run.executed, run.deliberations), (1_109, 46));
}

#[test]
fn seed_2_simulation_is_pinned() {
    let run = run(2);
    assert_eq!(
        run.log,
        [
            (6, 0, 3_264_814, 20_794),
            (5, 6, 4_664_472, 20_553),
            (3, 10, 6_710_749, 269_376),
            (1, 12, 17_822_725, 272_337),
            (10, 10, 18_094_582, 41_715),
            (9, 14, 19_249_284, 9_879),
            (4, 2, 23_950_618, 37_987),
            (11, 8, 28_308_907, 268_081),
            (2, 6, 30_576_706, 48_155),
            (0, 2, 32_485_631, 57_852),
            (5, 0, 36_686_387, 303_037),
            (10, 6, 38_762_222, 291_505),
            (8, 10, 39_818_926, 269_668),
            (6, 2, 39_869_192, 290_952),
            (1, 14, 40_874_126, 294_420),
            (7, 14, 41_333_026, 285_032),
            (9, 8, 43_863_174, 286_723),
            (3, 2, 44_907_538, 11_436),
            (10, 8, 58_889_601, 305_292),
            (6, 10, 60_754_748, 291_163),
            (2, 14, 61_380_365, 300_689),
            (4, 6, 61_902_334, 245_848),
            (11, 0, 63_368_692, 292_478),
            (0, 12, 66_283_716, 304_928),
            (7, 4, 66_822_071, 33_961),
            (5, 6, 66_857_386, 287_561),
            (9, 0, 67_144_110, 283_686),
            (8, 2, 74_230_109, 61_185),
            (3, 12, 75_645_048, 281_323),
            (1, 4, 77_175_656, 241_030),
            (10, 0, 80_373_203, 304_133),
            (6, 4, 81_272_907, 289_992),
            (0, 6, 90_882_331, 305_093),
            (4, 12, 93_227_464, 266_532),
            (9, 14, 93_815_628, 260_646),
            (8, 8, 96_247_446, 275_669),
            (2, 6, 97_104_178, 255_621),
            (11, 10, 97_977_008, 25_057),
            (7, 2, 100_065_478, 281_200),
            (5, 0, 103_269_111, 290_896),
            (3, 2, 107_388_129, 244_890),
            (1, 2, 113_071_448, 4_292),
            (6, 0, 113_380_079, 304_058),
            (10, 6, 116_843_762, 269_502),
            (9, 10, 119_554_634, 286_176),
            (11, 14, 121_705_471, 244_471),
        ]
    );
    assert_eq!((run.executed, run.deliberations), (1_109, 46));
}
