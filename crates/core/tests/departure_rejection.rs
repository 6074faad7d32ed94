//! Regression tests for departure-rejection cleanup: a migration the
//! platform refuses at dispatch time (link down at the gateway, no route
//! at all) must not leak its in-flight record or leave its telemetry root
//! span open. Before
//! the fix a deferred move or clone that failed at queue-drain time was
//! only counted by the platform; with faults off no watchdog existed to
//! notice, so the flight leaked forever (and a follow-me application
//! stayed suspended at the source).

use mdagent_context::UserId;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile, Middleware,
    MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, Simulator};

fn components() -> ComponentSet {
    [
        Component::synthetic("logic", ComponentKind::Logic, 90_000),
        Component::synthetic("ui", ComponentKind::Presentation, 40_000),
        Component::synthetic("data", ComponentKind::Data, 250_000),
    ]
    .into_iter()
    .collect()
}

/// The 2-hop inter-space topology: office {src — gw} over Ethernet, and
/// gw — dest across the gateway into the away space.
fn world_2hop() -> (Middleware, Simulator<Middleware>, HostId, HostId) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", away, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.ethernet(src, gw).unwrap();
    b.gateway(gw, dest).unwrap();
    b.seed(11);
    let (world, sim) = b.build();
    (world, sim, src, dest)
}

/// No leaked flight records and no open telemetry spans after a drain.
fn assert_clean(world: &Middleware) {
    assert_eq!(
        world.in_flight_count(),
        0,
        "rejected departure must not leak an in-flight record"
    );
    let open: Vec<_> = world
        .telemetry()
        .spans()
        .iter()
        .filter(|s| s.end.is_none())
        .map(|s| s.name.clone())
        .collect();
    assert!(open.is_empty(), "open spans after drain: {open:?}");
}

/// A clone dispatch that the platform refuses (gateway outage ⇒ link
/// down) aborts the flight: the record is removed, the root span closed,
/// and the original application keeps running at the source.
#[test]
fn refused_clone_dispatch_cleans_up_the_flight() {
    let (mut world, mut sim, src, dest) = world_2hop();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "slide-show",
        src,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    world.faults_mut().set_gateway_outage(true);
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        dest,
        MobilityMode::CloneDispatch,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run(&mut world);

    assert_clean(&world);
    assert_eq!(world.metrics().counter("ma.clone_failed"), 1);
    assert_eq!(world.metrics().counter("migration.clone_aborts"), 1);
    assert_eq!(world.metrics().counter("migration.clones_completed"), 0);
    let original = world.apps().next().unwrap();
    assert_eq!(original.state, AppState::Running, "original keeps running");
    assert_eq!(original.host, src);

    // The outage lifts; the same application clones successfully — the
    // aborted flight left no state behind to confuse the retry.
    world.faults_mut().set_gateway_outage(false);
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        dest,
        MobilityMode::CloneDispatch,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run(&mut world);
    assert_clean(&world);
    assert_eq!(world.metrics().counter("migration.clones_completed"), 1);
}

/// A follow-me blocked by a gateway outage is the armed watchdog's
/// business: the deferred-failure hook stands aside, the retry nudges
/// run out, and the application rolls back to Running at the source
/// with no leaked flight.
#[test]
fn outage_blocked_follow_me_rolls_back() {
    let (mut world, mut sim, src, dest) = world_2hop();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "slide-show",
        src,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    world.faults_mut().set_gateway_outage(true);
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        dest,
        MobilityMode::FollowMe,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run(&mut world);

    assert_clean(&world);
    assert_eq!(world.metrics().counter("migration.rollbacks"), 1);
    assert_eq!(world.metrics().counter("migration.completed"), 0);
    assert!(world.metrics().counter("migration.retries") >= 1);
    let app_record = world.apps().next().unwrap();
    assert_eq!(app_record.state, AppState::Running, "resumed at source");
    assert_eq!(app_record.host, src);
}
