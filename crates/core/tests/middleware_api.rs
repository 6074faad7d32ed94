//! API-surface tests of the middleware: builder wiring, accessors,
//! registry bookkeeping and state-update semantics.

use mdagent_context::{BadgeId, UserId};
use mdagent_core::ResourceRecord;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, ComponentSet, CoreError, DeviceClass,
    DeviceProfile, Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimTime, SpaceId};

fn components() -> ComponentSet {
    [
        Component::synthetic("logic", ComponentKind::Logic, 50_000),
        Component::synthetic("ui", ComponentKind::Presentation, 20_000),
    ]
    .into_iter()
    .collect()
}

#[test]
fn builder_assigns_primaries_and_profiles() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pda = b.host("pda", office, CpuFactor::new(0.25), DeviceProfile::handheld);
    b.ethernet(pc, pda).unwrap();
    let (world, _sim) = b.build();
    assert_eq!(
        world.primary_host(office).unwrap(),
        pc,
        "first host is primary"
    );
    assert_eq!(world.device_profile(pc).class, DeviceClass::Pc);
    assert_eq!(world.device_profile(pda).class, DeviceClass::Handheld);
    assert_eq!(world.space_of(pda).unwrap(), office);
    // Unconfigured hosts default to a PC profile; unknown spaces error.
    assert_eq!(world.device_profile(HostId(99)).class, DeviceClass::Pc);
    assert!(matches!(
        world.primary_host(SpaceId(9)),
        Err(CoreError::NoHostInSpace(_))
    ));
}

#[test]
fn response_time_scales_with_distance() {
    let mut b = Middleware::builder();
    let s0 = b.space("s0");
    let s1 = b.space("s1");
    let s2 = b.space("s2");
    let h0 = b.host("h0", s0, CpuFactor::REFERENCE, DeviceProfile::pc);
    let h1 = b.host("h1", s1, CpuFactor::REFERENCE, DeviceProfile::pc);
    let h2 = b.host("h2", s2, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(h0, h1).unwrap();
    b.gateway(h1, h2).unwrap();
    let (world, _sim) = b.build();
    let one_hop = world.response_time_ms(h0, h1);
    let two_hops = world.response_time_ms(h0, h2);
    assert!(one_hop > 0.0);
    assert!(two_hops > one_hop);
    assert_eq!(world.response_time_ms(h0, h0), 0.0);
}

#[test]
fn resource_churn_repairs_ontology_incrementally() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, _sim) = b.build();
    world
        .federation
        .add_center(office)
        .declare_subclass("imcl:hpLaserJet", "imcl:Printer");
    world.register_space_resource(ResourceRecord::new(
        "imcl:prn-1",
        "imcl:hpLaserJet",
        office,
        pc,
    ));
    world.register_space_resource(
        ResourceRecord::new("imcl:prn-2", "imcl:hpLaserJet", office, pc).lease_until(30_000),
    );
    let hits = world
        .federation
        .find_resources(office, office, "imcl:Printer")
        .unwrap();
    assert_eq!(hits.value.len(), 2);
    let full_before = world
        .federation
        .center(office)
        .unwrap()
        .full_materializations();
    // Explicit deregistration repairs the closure under an `aa.retract`
    // span; a second attempt is a no-op.
    assert!(world.deregister_space_resource(office, "imcl:prn-1", SimTime::from_millis(10)));
    assert!(!world.deregister_space_resource(office, "imcl:prn-1", SimTime::from_millis(10)));
    // A lease expiry sweep takes the second record out the same way.
    assert_eq!(world.expire_resource_leases(SimTime::from_millis(30)), 1);
    let hits = world
        .federation
        .find_resources(office, office, "imcl:Printer")
        .unwrap();
    assert!(hits.value.is_empty());
    let center = world.federation.center(office).unwrap();
    assert_eq!(
        center.full_materializations(),
        full_before,
        "retraction must not force a full re-materialization"
    );
    assert!(center.retraction_flushes() >= 2);
    assert_eq!(world.telemetry().spans_named("aa.retract").count(), 2);
    assert_eq!(world.metrics().counter("aa.retract"), 2);
    assert!(world
        .metrics()
        .histogram("reasoner.retract_latency")
        .is_some());
}

#[test]
fn deploy_registers_app_and_ma() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "thing",
        pc,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);

    let a = world.app(app).unwrap();
    assert_eq!(a.state, AppState::Running);
    assert!(a.mobile_agent.is_some());
    // The registry record reflects the component inventory.
    let record = world
        .federation
        .center(office)
        .unwrap()
        .application("thing")
        .unwrap()
        .clone();
    assert!(record.has_component("logic"));
    assert!(record.has_component("presentation"));
    assert!(!record.has_component("data"));
    assert_eq!(record.host, pc);
    // Bad app ids error.
    assert!(matches!(
        world.app(mdagent_core::AppId(99)),
        Err(CoreError::UnknownApp(_))
    ));
}

#[test]
fn migration_moves_registry_records_across_spaces() {
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
        "roamer",
        pc0,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    assert!(world
        .federation
        .center(office)
        .unwrap()
        .application("roamer")
        .is_some());

    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pc1,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )
    .unwrap();
    sim.run(&mut world);
    // Checked out of the office registry, checked in at the lab.
    assert!(world
        .federation
        .center(office)
        .unwrap()
        .application("roamer")
        .is_none());
    let record = world
        .federation
        .center(lab)
        .unwrap()
        .application("roamer")
        .unwrap()
        .clone();
    assert_eq!(record.host, pc1);
}

#[test]
fn state_updates_notify_local_observers_synchronously() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "obs",
        pc,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    world
        .app_mut(app)
        .unwrap()
        .coordinator
        .register_observer("window-a");
    world
        .app_mut(app)
        .unwrap()
        .coordinator
        .register_observer("window-b");
    let v = Middleware::update_app_state(&mut world, &mut sim, app, "k", "v").unwrap();
    assert_eq!(v, 1);
    // Observers were marked caught-up by the middleware.
    assert!(world
        .app(app)
        .unwrap()
        .coordinator
        .stale_observers()
        .is_empty());
    assert_eq!(world.app(app).unwrap().coordinator.state("k"), Some("v"));
}

#[test]
fn clock_skews_are_configurable_per_host() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.clock_skew(pc, 123_456);
    let (world, _sim) = b.build();
    assert_eq!(
        world.host_clock(pc).read(mdagent_simnet::SimTime::ZERO),
        123_456
    );
    // Unconfigured hosts are synchronized.
    assert_eq!(
        world
            .host_clock(HostId(50))
            .read(mdagent_simnet::SimTime::ZERO),
        0
    );
}

#[test]
fn sense_period_is_respected() {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let pc = b.host("pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.sense_period(SimDuration::from_millis(500));
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    Middleware::start_sensing(&mut world, &mut sim);
    // Double-start is a no-op.
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, mdagent_simnet::SimTime::from_millis(2100));
    let raw = world
        .kernel
        .classifier
        .db(mdagent_context::TemporalClass::Dynamic)
        .history(mdagent_context::topics::RAW_DISTANCE)
        .count();
    // 4 rounds at 500 ms within 2.1 s (some may have TTL-evicted; at least 1).
    assert!((1..=4).contains(&raw), "got {raw} raw readings");
    let _ = pc;
}
