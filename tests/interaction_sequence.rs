//! F4: the paper's Fig. 4 interaction diagram — the exact order of
//! middleware interactions during a context-triggered migration, verified
//! across crates through the facade.

use mdagent::apps::{testkit, MediaPlayer};
use mdagent::context::{BadgeId, UserId};
use mdagent::core::{AutonomousAgent, BindingPolicy, Middleware};
use mdagent::simnet::{SimTime, TraceCategory};

#[test]
fn fig4_sequence_is_observed() {
    let (mut world, mut sim, hosts) = testkit::two_space_world();
    let profile = testkit::default_profile();
    world.attach_user(profile.clone(), BadgeId(0), hosts.office, 2.0);
    let player =
        MediaPlayer::deploy(&mut world, &mut sim, hosts.office_pc, profile, 3_000_000).unwrap();
    MediaPlayer::play(&mut world, &mut sim, player, "suite.mp3").unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        hosts.office_pc,
        AutonomousAgent::new(UserId(0), player.app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);

    sim.run_until(&mut world, SimTime::from_secs(2));
    world.move_user(BadgeId(0), hosts.lab, 2.0);
    sim.run_until(&mut world, SimTime::from_secs(30));

    // The Fig. 4 message sequence: context event → AA decision →
    // coordinator suspend + snapshot → MA wrap → check-out → check-in →
    // restore/rebind/adapt → resume.
    world
        .trace()
        .check_sequence(&[
            "context event",
            "AA decides follow-me",
            "coordinator suspends",
            "MA wraps components",
            "MA check-out",
            "MA check-in",
            "MA restores",
            "resumed at",
        ])
        .unwrap_or_else(|missing| panic!("Fig. 4 step missing from trace: {missing}"));
    // Suspension and state recording happen together (one coordinator act).
    assert!(world
        .trace()
        .check_sequence(&["snapshot manager records states"])
        .is_ok());

    // Every layer of the Fig. 2 architecture shows up in the trace.
    for category in [
        TraceCategory::Context,
        TraceCategory::Agent,
        TraceCategory::Application,
    ] {
        assert!(
            world
                .trace()
                .entries()
                .iter()
                .any(|e| e.category == category),
            "no {category} trace entries"
        );
    }

    // And the migration completed with its state intact.
    assert_eq!(world.app(player.app).unwrap().host, hosts.lab_pc);
    assert!(MediaPlayer::is_playing(&world, player).unwrap());
}

#[test]
fn no_migration_without_location_change() {
    let (mut world, mut sim, hosts) = testkit::two_space_world();
    let profile = testkit::default_profile();
    world.attach_user(profile.clone(), BadgeId(0), hosts.office, 2.0);
    let player =
        MediaPlayer::deploy(&mut world, &mut sim, hosts.office_pc, profile, 2_000_000).unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        hosts.office_pc,
        AutonomousAgent::new(UserId(0), player.app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);
    // The user stays put for a long time: nothing migrates.
    sim.run_until(&mut world, SimTime::from_secs(30));
    assert!(world.migration_log().is_empty());
    assert_eq!(world.app(player.app).unwrap().host, hosts.office_pc);
}

#[test]
fn user_moving_within_same_space_does_not_migrate() {
    let (mut world, mut sim, hosts) = testkit::two_space_world();
    let profile = testkit::default_profile();
    world.attach_user(profile.clone(), BadgeId(0), hosts.office, 1.0);
    let player =
        MediaPlayer::deploy(&mut world, &mut sim, hosts.office_pc, profile, 2_000_000).unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        hosts.office_pc,
        AutonomousAgent::new(UserId(0), player.app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));
    // Walk around the office (same space, different position).
    world.move_user(BadgeId(0), hosts.office, 3.5);
    sim.run_until(&mut world, SimTime::from_secs(10));
    assert!(world.migration_log().is_empty());
}
