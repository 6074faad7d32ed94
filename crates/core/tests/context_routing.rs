//! Context routing by subject: a fused event about one user is routed to
//! that user's autonomous agents only, and the simulation is otherwise
//! the one it was when every AA heard every user's context.
//!
//! The world is a 2×2 grid of spaces with five badge-wearing users. Users
//! 0, 1 and 3 each own one application watched by one adaptive AA, user 2
//! owns two (two AAs), and user 4 owns none. A fixed commute moves them
//! about. The migration log is pinned to the one the broadcast routing
//! produced: an AA ignored every notice about another user, so dropping
//! those notices must not change a single decision, destination, instant
//! or byte.

use mdagent_context::{BadgeId, UserId};
use mdagent_core::{
    AutonomousAgent, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile,
    Middleware, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimTime, Simulator, SpaceId, TraceEvent};

/// Applications (and so AAs) each user owns.
const APPS_PER_USER: [usize; 5] = [1, 1, 2, 1, 0];

/// Each user's starting space.
const HOME: [u32; 5] = [0, 1, 2, 3, 0];

/// The commute: `(at ms, user, space, position m)`.
const COMMUTE: [(u64, u32, u32, f64); 9] = [
    (2_000, 0, 1, 1.5),
    (2_500, 2, 3, 2.5),
    (3_000, 4, 2, 1.0),
    (4_000, 1, 0, 3.0),
    (6_000, 3, 0, 2.0),
    (8_000, 0, 3, 0.5),
    (9_000, 2, 0, 2.0),
    (11_000, 4, 1, 2.0),
    (12_000, 1, 2, 1.5),
];

/// The migration log `(app, destination host, completed at µs, shipped
/// bytes)` as the broadcast routing produced it.
const EXPECTED_LOG: &[(u32, u32, u64, u64)] = &[
    (0, 1, 2_976_792, 240_056),
    (2, 3, 3_576_792, 240_056),
    (3, 3, 3_576_792, 240_056),
    (1, 0, 4_976_792, 240_056),
    (4, 0, 7_069_030, 240_056),
    (0, 3, 8_796_775, 240_054),
    (2, 0, 9_889_013, 240_054),
    (3, 0, 9_889_013, 240_054),
    (1, 2, 12_796_775, 240_054),
];

fn components() -> ComponentSet {
    [
        Component::synthetic("logic", ComponentKind::Logic, 180_000),
        Component::synthetic("ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("data", ComponentKind::Data, 250_000),
    ]
    .into_iter()
    .collect()
}

/// Builds the grid, users, applications and AAs, runs the commute, and
/// returns the drained world.
fn run_commute() -> (Middleware, Simulator<Middleware>) {
    let mut b = Middleware::builder();
    let spaces: Vec<SpaceId> = (0..4).map(|s| b.space(&format!("s{s}"))).collect();
    let hosts: Vec<HostId> = spaces
        .iter()
        .enumerate()
        .map(|(s, &space)| {
            b.host(
                &format!("pc{s}"),
                space,
                CpuFactor::REFERENCE,
                DeviceProfile::pc,
            )
        })
        .collect();
    for (a, c) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        b.gateway(hosts[a], hosts[c]).unwrap();
    }
    b.seed(5);
    let (mut world, mut sim) = b.build();
    for (user, (&apps, &home)) in APPS_PER_USER.iter().zip(&HOME).enumerate() {
        let user = user as u32;
        let profile = UserProfile::new(UserId(user));
        world.attach_user(profile.clone(), BadgeId(user), spaces[home as usize], 2.0);
        for k in 0..apps {
            let host = hosts[home as usize];
            let name = format!("app-u{user}-{k}");
            let app = Middleware::deploy_app(
                &mut world,
                &mut sim,
                &name,
                host,
                components(),
                profile.clone(),
            )
            .unwrap();
            let aa = AutonomousAgent::new(UserId(user), app, BindingPolicy::Adaptive);
            Middleware::spawn_autonomous_agent(&mut world, &mut sim, host, aa).unwrap();
        }
    }
    for (at_ms, user, space, position_m) in COMMUTE {
        sim.schedule_at(SimTime::from_millis(at_ms), move |w: &mut Middleware, _| {
            w.move_user(BadgeId(user), SpaceId(space), position_m);
        });
    }
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(30));
    (world, sim)
}

/// The user a fused-event description (`Location { user: UserId(3), .. }`)
/// is about.
fn user_of(description: &str) -> usize {
    let rest = description
        .split_once("user: UserId(")
        .map(|(_, rest)| rest)
        .unwrap_or_else(|| panic!("no user in {description:?}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn each_event_reaches_only_its_users_aas() {
    let (world, _sim) = run_commute();
    let mut events = 0;
    for entry in world.trace().entries() {
        if let TraceEvent::ContextEvent {
            description,
            subscribers,
        } = &entry.event
        {
            events += 1;
            let user = user_of(description);
            assert_eq!(
                *subscribers, APPS_PER_USER[user],
                "{description} at {:?} routed to {subscribers} AAs",
                entry.at
            );
        }
    }
    // Each user's first location, then one per commute move.
    assert_eq!(events, APPS_PER_USER.len() + COMMUTE.len());
}

#[test]
fn notices_delivered_match_the_trace() {
    let (world, _sim) = run_commute();
    let notices: usize = world
        .trace()
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::ContextEvent { subscribers, .. } => Some(*subscribers),
            _ => None,
        })
        .sum();
    // Besides the notices, each migration sends two ACL messages: the
    // AA's request to its mobile agent and the middleware's cargo.
    let others = 2 * world.migration_log().len();
    let delivered = world.metrics().counter("acl.delivered") as usize;
    assert_eq!(delivered, notices + others);
    assert_eq!(world.metrics().counter("acl.dead_letter"), 0);
    assert_eq!(world.in_flight_count(), 0);
}

#[test]
fn migration_log_is_unchanged() {
    let (world, _sim) = run_commute();
    let log: Vec<(u32, u32, u64, u64)> = world
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
        .collect();
    assert_eq!(log, EXPECTED_LOG);
}
