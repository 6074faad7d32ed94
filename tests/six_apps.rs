//! A day in the smart space: all six demo applications of §5 deployed at
//! once, following one user through the environment.

use mdagent::apps::{
    testkit, Editor, HandheldEditor, HandheldPlayer, MediaPlayer, Messenger, SlideShow,
};
use mdagent::context::{BadgeId, ContextData, TemporalClass, UserId};
use mdagent::core::{AutonomousAgent, BindingPolicy, Middleware};
use mdagent::simnet::{SimDuration, SimTime};

#[test]
fn all_six_demos_coexist_and_follow() {
    let (mut world, mut sim, hosts) = testkit::two_space_world();
    let profile = testkit::default_profile();
    world.attach_user(profile.clone(), BadgeId(0), hosts.office, 2.0);

    // Deploy the full §5 suite.
    let player = MediaPlayer::deploy(
        &mut world,
        &mut sim,
        hosts.office_pc,
        profile.clone(),
        2_000_000,
    )
    .unwrap();
    let editor = Editor::deploy(
        &mut world,
        &mut sim,
        hosts.office_pc,
        profile.clone(),
        400_000,
    )
    .unwrap();
    let show = SlideShow::deploy(
        &mut world,
        &mut sim,
        hosts.office_pc,
        profile.clone(),
        900_000,
    )
    .unwrap();
    let h_editor = HandheldEditor::deploy(
        &mut world,
        &mut sim,
        hosts.office_pda,
        profile.clone(),
        30_000,
    )
    .unwrap();
    let h_player = HandheldPlayer::deploy(
        &mut world,
        &mut sim,
        hosts.office_pda,
        profile.clone(),
        800_000,
    )
    .unwrap();
    let im = Messenger::deploy(
        &mut world,
        &mut sim,
        hosts.office_pc,
        profile.clone(),
        80_000,
    )
    .unwrap();
    assert_eq!(world.apps().count(), 6);

    // Work with each of them.
    MediaPlayer::play(&mut world, &mut sim, player, "suite.mp3").unwrap();
    Editor::type_text(&mut world, &mut sim, editor, "section 1 draft").unwrap();
    SlideShow::next_slide(&mut world, &mut sim, show).unwrap();
    HandheldEditor::jot(&mut world, &mut sim, h_editor, "call bob").unwrap();
    HandheldPlayer::set_volume(&mut world, &mut sim, h_player, 7).unwrap();
    Messenger::receive(&mut world, &mut sim, im, "carol", "lunch?").unwrap();

    // Only the messenger and the editor follow the user automatically.
    for app in [im.app, editor.app] {
        Middleware::spawn_autonomous_agent(
            &mut world,
            &mut sim,
            hosts.office_pc,
            AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive),
        )
        .unwrap();
    }
    Middleware::start_sensing(&mut world, &mut sim);
    Middleware::start_network_probes(
        &mut world,
        &mut sim,
        vec![(hosts.office_pc, hosts.lab_pc)],
        SimDuration::from_secs(5),
    );
    sim.run_until(&mut world, SimTime::from_secs(2));

    // The user heads to the lab.
    world.move_user(BadgeId(0), hosts.lab, 2.0);
    sim.run_until(&mut world, SimTime::from_secs(30));

    // Messenger and editor followed; the rest stayed home.
    assert_eq!(world.app(im.app).unwrap().host, hosts.lab_pc);
    assert_eq!(world.app(editor.app).unwrap().host, hosts.lab_pc);
    assert_eq!(world.app(player.app).unwrap().host, hosts.office_pc);
    assert_eq!(world.app(show.app).unwrap().host, hosts.office_pc);
    assert_eq!(world.app(h_editor.app).unwrap().host, hosts.office_pda);
    assert_eq!(world.migration_log().len(), 2);

    // All application state survived undisturbed.
    assert_eq!(Editor::buffer(&world, editor).unwrap(), "section 1 draft");
    assert_eq!(Messenger::unread(&world, im).unwrap(), 1);
    assert_eq!(HandheldEditor::note(&world, h_editor).unwrap(), "call bob");
    assert_eq!(HandheldPlayer::volume(&world, h_player).unwrap(), 7);
    assert_eq!(SlideShow::current_slide(&world, show.app).unwrap(), 2);
    assert!(MediaPlayer::is_playing(&world, player).unwrap());

    // Network probes produced slow-class context the classifier retained.
    assert!(world.metrics().counter("probe.rounds") >= 1);
    assert!(world
        .kernel
        .classifier
        .db(TemporalClass::Slow)
        .latest(mdagent::context::topics::RESPONSE_TIME)
        .is_some());
}

#[test]
fn user_indication_context_reaches_subscribed_agents() {
    let (mut world, mut sim, hosts) = testkit::two_space_world();
    let profile = testkit::default_profile();
    world.attach_user(profile.clone(), BadgeId(0), hosts.office, 2.0);
    let show = SlideShow::deploy(&mut world, &mut sim, hosts.office_pc, profile, 500_000).unwrap();
    world
        .provision(
            hosts.lab_pc,
            SlideShow::NAME,
            SlideShow::presenter_runtime(),
        )
        .unwrap();
    Middleware::spawn_autonomous_agent(
        &mut world,
        &mut sim,
        hosts.office_pc,
        AutonomousAgent::new(UserId(0), show.app, BindingPolicy::Adaptive).manual_only(),
    )
    .unwrap();
    sim.run_until(&mut world, SimTime::from_secs(1));

    // A command for a different user is ignored by this AA.
    Middleware::publish_context(
        &mut world,
        &mut sim,
        ContextData::UserIndication {
            user: UserId(99),
            command: "dispatch".into(),
            args: vec![hosts.lab.0.to_string()],
        },
    );
    sim.run_until(&mut world, SimTime::from_secs(10));
    assert!(world.migration_log().is_empty());

    // The right user's command dispatches.
    Middleware::publish_context(
        &mut world,
        &mut sim,
        ContextData::UserIndication {
            user: UserId(0),
            command: "dispatch".into(),
            args: vec![hosts.lab.0.to_string()],
        },
    );
    sim.run_until(&mut world, SimTime::from_secs(40));
    assert_eq!(world.migration_log().len(), 1);
    assert_eq!(SlideShow::replicas(&world, show).len(), 1);
}
