//! Tests for device-compatibility gating, predictive pre-staging and
//! clean failure handling in the migration pipeline.

use mdagent_context::{BadgeId, UserId};
use mdagent_core::{
    AppState, AutonomousAgent, BindingPolicy, Component, ComponentKind, ComponentSet, CoreError,
    DeviceProfile, Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, SimDuration, SimTime};

fn components() -> ComponentSet {
    [
        Component::synthetic("logic", ComponentKind::Logic, 150_000),
        Component::synthetic("ui", ComponentKind::Presentation, 80_000),
        Component::synthetic("data", ComponentKind::Data, 1_000_000),
    ]
    .into_iter()
    .collect()
}

#[test]
fn device_requirements_block_migration_to_small_screens() {
    // Office PC and a handheld in the hallway space; the app needs 800 px.
    let mut b = Middleware::builder();
    let office = b.space("office");
    let hallway = b.space("hallway");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pda = b.host(
        "pda",
        hallway,
        CpuFactor::new(0.25),
        DeviceProfile::handheld,
    );
    b.gateway(pc, pda).unwrap();
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);

    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "wide-app",
        pc,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    Middleware::set_app_requirements(&mut world, app, vec![("screen-width".into(), "800".into())])
        .unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        pc,
        AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));

    // The user walks into the hallway where only the PDA lives.
    world.move_user(BadgeId(0), hallway, 2.0);
    sim.run_until(&mut world, SimTime::from_secs(20));

    assert!(
        world.migration_log().is_empty(),
        "migration must be declined"
    );
    assert_eq!(world.app(app).unwrap().host, pc);
    assert_eq!(world.metrics().counter("aa.device_incompatible"), 1);
    assert!(world
        .trace()
        .check_sequence(&["fails device requirements"])
        .is_ok());
}

#[test]
fn requirements_that_pass_do_not_block() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let pc1 = b.host("pc1", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc2 = b.host("pc2", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc1, pc2).unwrap();
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "wide-app",
        pc1,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    Middleware::set_app_requirements(
        &mut world,
        app,
        vec![
            ("screen-width".into(), "800".into()),
            ("audio".into(), "true".into()),
        ],
    )
    .unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        pc1,
        AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));
    world.move_user(BadgeId(0), lab, 2.0);
    sim.run_until(&mut world, SimTime::from_secs(20));
    assert_eq!(world.migration_log().len(), 1);
    assert_eq!(world.app(app).unwrap().host, pc2);
}

#[test]
fn prestaging_shrinks_the_next_migration() {
    // Three rooms in a row; the user walks office → lab → studio twice.
    // With prestaging on, by the time they enter the studio its host
    // already has the logic/UI, so the final hop ships only states.
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let studio = b.space("studio");
    let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc2 = b.host("pc2", studio, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).unwrap();
    b.gateway(pc1, pc2).unwrap();
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "routine-app",
        pc0,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        pc0,
        AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive).with_prestaging(),
    )
    .unwrap();
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));

    // First tour: the predictor has nothing yet; every hop ships logic+UI.
    for space in [lab, studio, office] {
        world.move_user(BadgeId(0), space, 2.0);
        let deadline = sim.now() + SimDuration::from_secs(15);
        sim.run_until(&mut world, deadline);
    }
    let first_tour: Vec<u64> = world
        .migration_log()
        .iter()
        .map(|r| r.shipped_bytes)
        .collect();
    assert_eq!(first_tour.len(), 3);

    // Second tour: the predictor knows office→lab→studio→office, so the
    // AA pre-stages ahead and later hops ship only the snapshot.
    for space in [lab, studio, office] {
        world.move_user(BadgeId(0), space, 2.0);
        let deadline = sim.now() + SimDuration::from_secs(15);
        sim.run_until(&mut world, deadline);
    }
    let log = world.migration_log();
    assert_eq!(log.len(), 6);
    let second_tour: Vec<u64> = log[3..].iter().map(|r| r.shipped_bytes).collect();
    assert!(world.metrics().counter("prestage.transfers") >= 1);
    // At least one second-tour hop ships far less than its first-tour twin.
    let improved = first_tour
        .iter()
        .zip(&second_tour)
        .any(|(a, b)| *b * 3 < *a);
    assert!(
        improved,
        "prestaging should shrink some hop: {first_tour:?} -> {second_tour:?}"
    );
    // And nothing regressed.
    for (a, b) in first_tour.iter().zip(&second_tour) {
        assert!(b <= a, "second tour may not ship more: {a} -> {b}");
    }
}

#[test]
fn unreachable_destination_fails_cleanly() {
    // Two disconnected spaces: migrate_now errors and the app keeps running.
    let mut b = Middleware::builder();
    let office = b.space("office");
    let island = b.space("island");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let islander = b.host("islander", island, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "stuck-app",
        pc,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    let err = Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        islander,
        MobilityMode::FollowMe,
        BindingPolicy::Adaptive,
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::Topology(_)));
    sim.run(&mut world);
    // Untouched: still running at the source, no phantom reports.
    let a = world.app(app).unwrap();
    assert_eq!(a.state, AppState::Running);
    assert_eq!(a.host, pc);
    assert!(world.migration_log().is_empty());
}

#[test]
fn migrating_a_suspended_app_is_rejected() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).unwrap();
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "busy-app",
        pc0,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    // First migration starts; a second request while suspended must fail.
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pc1,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )
    .unwrap();
    let err = Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pc1,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::BadAppState(_, _)));
    sim.run(&mut world);
    assert_eq!(world.migration_log().len(), 1, "only the first ran");
    assert_eq!(world.app(app).unwrap().host, pc1);
}

#[test]
fn prestage_of_dataless_app_is_free() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).unwrap();
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "data-only",
        pc0,
        [Component::synthetic("blob", ComponentKind::Data, 500_000)]
            .into_iter()
            .collect(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    // Nothing stageable (no logic/UI): zero-cost no-op.
    let cost = Middleware::prestage(&mut world, &mut sim, app, pc1).unwrap();
    assert_eq!(cost, SimDuration::ZERO);
    assert_eq!(world.metrics().counter("prestage.transfers"), 0);
}

#[test]
fn custom_rule_base_changes_migration_policy() {
    // A stricter rule base (threshold 5 ms instead of 1000 ms) makes the
    // AA refuse a migration the default rules would allow.
    let strict = r#"
        [Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr), (?destRsc rdf:type ?ptr)
            -> (?srcRsc imcl:compatible ?destRsc)]
        [Rule3: (?srcRsc imcl:address ?value1), (?destRsc imcl:address ?value2),
            (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
            lessThan(?t, '5'^^xsd:double)
            -> (?action imcl:actName "move"), (?action imcl:srcAddress ?value1),
               (?action imcl:destAddress ?value2)]
    "#;
    let run = |use_strict: bool| {
        let mut b = Middleware::builder();
        let office = b.space("office");
        let lab = b.space("lab");
        let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
        let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
        b.gateway(pc0, pc1).unwrap();
        let (mut world, mut sim) = b.build();
        world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
        world.install_rule_base("strict", strict).unwrap();
        let app = Middleware::deploy_app(
            &mut world,
            &mut sim,
            "ruled-app",
            pc0,
            components(),
            UserProfile::new(UserId(0)),
        )
        .unwrap();
        let mut aa = AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive);
        if use_strict {
            aa = aa.with_rule_base("strict");
        }
        Middleware::spawn_autonomous_agent(&mut world, &mut sim, pc0, aa).unwrap();
        Middleware::start_sensing(&mut world, &mut sim);
        sim.run_until(&mut world, SimTime::from_secs(2));
        world.move_user(BadgeId(0), lab, 2.0);
        sim.run_until(&mut world, SimTime::from_secs(20));
        world.migration_log().len()
    };
    assert_eq!(run(false), 1, "default rules allow the move");
    assert_eq!(run(true), 0, "the strict rule base blocks it");
}

#[test]
fn malformed_rule_base_is_rejected_at_install() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, _sim) = b.build();
    assert!(world.install_rule_base("broken", "[oops").is_err());
    // Unknown names fall back to the paper's default rules.
    assert_eq!(world.rule_base("broken"), mdagent_core::PAPER_RULES);
    assert_eq!(world.rule_base("default"), mdagent_core::PAPER_RULES);
}

#[test]
fn preference_context_updates_stored_profile() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, mut sim) = b.build();
    Middleware::publish_context(
        &mut world,
        &mut sim,
        mdagent_context::ContextData::Preference {
            user: UserId(4),
            key: "handedness".into(),
            value: "left".into(),
        },
    );
    sim.run(&mut world);
    assert!(world.user_profile(UserId(4)).is_left_handed());
}
