//! A migration concern is on exactly when its switch is: the data path
//! elides components only when the builder turned it on, and the driver
//! alone samples the per-leg migrate phase.

use mdagent_context::UserId;
use mdagent_core::{
    BindingPolicy, Component, ComponentKind, ComponentSet, DataPathOptions, DeviceProfile,
    Middleware, MiddlewareBuilder, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, Simulator};

fn ui() -> Component {
    Component::synthetic("ui", ComponentKind::Presentation, 6_000)
}

/// A world built by `configure` over two spaces joined by a gateway, with
/// a player (codec + UI) deployed on `a` and the same UI provisioned on
/// `b`. Returns the drained world, its simulator, and the two hosts.
fn player_world(
    configure: impl FnOnce(&mut MiddlewareBuilder),
) -> (Middleware, Simulator<Middleware>, HostId, HostId) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let a = b.host("a", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let lab_pc = b.host("b", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(a, lab_pc).unwrap();
    b.seed(5);
    configure(&mut b);
    let (mut world, mut sim) = b.build();
    let components: ComponentSet = [
        Component::synthetic("codec", ComponentKind::Logic, 18_000),
        ui(),
    ]
    .into_iter()
    .collect();
    Middleware::deploy_app(
        &mut world,
        &mut sim,
        "player",
        a,
        components,
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    world
        .provision(lab_pc, "player", [ui()].into_iter().collect())
        .unwrap();
    sim.run(&mut world);
    (world, sim, a, lab_pc)
}

/// Runs one static follow-me leg of the player to `dest`.
fn leg(world: &mut Middleware, sim: &mut Simulator<Middleware>, dest: HostId) {
    let app = world.apps().next().unwrap().id;
    Middleware::migrate_now(
        world,
        sim,
        app,
        dest,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )
    .unwrap();
    sim.run(world);
}

/// `migration.cache_hits` per leg of an A→B→A→B shuttle, plus the total
/// `migration.cache_misses`.
fn cache_hits_per_leg(configure: impl FnOnce(&mut MiddlewareBuilder)) -> (Vec<u64>, u64) {
    let (mut world, mut sim, a, b) = player_world(configure);
    let mut hits = Vec::new();
    let mut seen = 0;
    for dest in [b, a, b] {
        leg(&mut world, &mut sim, dest);
        let total = world.metrics().counter("migration.cache_hits");
        hits.push(total - seen);
        seen = total;
    }
    (hits, world.metrics().counter("migration.cache_misses"))
}

#[test]
fn data_path_runs_exactly_when_its_layer_is_in_the_stack() {
    // Default build: no data path, so no elision is even attempted.
    assert_eq!(cache_hits_per_leg(|_| {}), (vec![0, 0, 0], 0));

    // The first visit to B elides the provisioned UI (advertised by the
    // provision record, seeded in B's cache); back on A nothing is held;
    // the second visit to B elides both, the UI only because provisioning
    // seeded B's cache (the provision record is gone by then).
    let (hits, _) = cache_hits_per_leg(|b| {
        b.data_path(DataPathOptions::all());
    });
    assert_eq!(hits, vec![1, 0, 2]);
}

#[test]
fn each_follow_me_leg_samples_the_migrate_phase_once() {
    let (mut world, mut sim, a, b) = player_world(|_| {});
    for dest in [b, a, b] {
        leg(&mut world, &mut sim, dest);
    }
    assert_eq!(world.migration_log().len(), 3);
    let samples = world
        .metrics()
        .durations("migration.migrate")
        .map_or(0, |d| d.count());
    assert_eq!(samples, world.migration_log().len());
}
