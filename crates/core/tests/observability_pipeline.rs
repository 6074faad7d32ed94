//! End-to-end tests of the opt-in observability pipeline: tail-based
//! sampling, wire trace-context propagation and SLO burn-rate
//! monitoring, wired through a real follow-me migration.

use mdagent_context::{BadgeId, UserId};
use mdagent_core::{
    AutonomousAgent, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile,
    FaultOptions, Middleware, MobilityMode, ObservabilityOptions, SamplerOptions, SloOptions,
    TraceContext, UserProfile, SLO_MIGRATION_COMPLETION, SLO_MIGRATION_LATENCY,
    SLO_REGISTRY_LOOKUP,
};
use mdagent_simnet::{AttrValue, CpuFactor, HostId, SimDuration, SimTime, Simulator};
use mdagent_wire::Wire;

fn components() -> ComponentSet {
    [
        Component::synthetic("codec", ComponentKind::Logic, 180_000),
        Component::synthetic("ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("track", ComponentKind::Data, 2_000_000),
    ]
    .into_iter()
    .collect()
}

/// Two spaces joined by a gateway, a user in the office, and the given
/// observability configuration applied at build time.
fn observed_world(
    obs: ObservabilityOptions,
    faults: Option<FaultOptions>,
) -> (Middleware, Simulator<Middleware>) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let _lab = b.space("lab");
    let office_pc = b.host("office-pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let lab_pc = b.host("lab-pc", _lab, CpuFactor::new(0.94), DeviceProfile::pc);
    b.gateway(office_pc, lab_pc).unwrap();
    b.seed(7);
    b.observability(obs);
    if let Some(f) = faults {
        b.faults(f);
    }
    let (mut world, sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    (world, sim)
}

/// Deploys the player on the office PC, walks the user to the lab, and
/// runs the sim long enough for the migration (or its rollback) to end.
fn run_follow_me(world: &mut Middleware, sim: &mut Simulator<Middleware>) {
    let office_pc = mdagent_simnet::HostId(0);
    let app = Middleware::deploy_app(
        world,
        sim,
        "player",
        office_pc,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    Middleware::spawn_autonomous_agent(
        world,
        sim,
        office_pc,
        AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive),
    )
    .unwrap();
    Middleware::start_sensing(world, sim);
    sim.run_until(world, SimTime::from_secs(2));
    world.move_user(BadgeId(0), mdagent_simnet::SpaceId(1), 2.0);
    sim.run_until(world, SimTime::from_secs(120));
}

fn full_pipeline(keep_fraction: f64) -> ObservabilityOptions {
    ObservabilityOptions {
        sampler: Some(SamplerOptions {
            keep_fraction,
            ..SamplerOptions::default()
        }),
        propagate_trace_ctx: true,
        slo: Some(SloOptions::default()),
    }
}

#[test]
fn propagated_context_links_one_trace_across_hosts() {
    let (mut world, mut sim) = observed_world(full_pipeline(1.0), None);
    run_follow_me(&mut world, &mut sim);
    assert_eq!(world.migration_log().len(), 1, "migration completed");

    let tel = world.telemetry();
    assert!(tel.sampler_options().is_some());
    let stats = tel.sampler_stats().unwrap();
    assert_eq!(stats.unaccounted(), 0, "every span accounted for");
    assert!(stats.traces_kept >= 1);

    // The destination-side check-in span exists, is parented to the
    // in-transit (migration.migrate) span, and names the root trace it
    // decoded from the wire — one causally-linked trace across hosts.
    let checkin = tel
        .spans_named("migration.checkin")
        .next()
        .expect("wire ctx produced a destination check-in span");
    let parent = checkin.parent.expect("check-in joins the source trace");
    let migrate = tel
        .span(parent)
        .expect("check-in parent was kept with its trace");
    assert_eq!(migrate.name, "migration.migrate");
    let root = tel.root_of(checkin.id);
    let trace_attr = checkin.attr("trace_id").expect("trace_id attr");
    let migration_root = tel
        .spans_named("migration")
        .next()
        .expect("migration root kept");
    assert_eq!(tel.root_of(migrate.id), migration_root.id);
    assert_eq!(root, migration_root.id);
    assert_eq!(
        *trace_attr,
        AttrValue::U64(u64::from(migration_root.id.raw())),
        "wire trace_id names the source root"
    );

    // All three SLOs saw traffic; a healthy run never alerts.
    let monitor = world.slo_monitor().expect("slo monitoring enabled");
    for name in [
        SLO_MIGRATION_LATENCY,
        SLO_MIGRATION_COMPLETION,
        SLO_REGISTRY_LOOKUP,
    ] {
        let slo = monitor.get(name).unwrap();
        assert!(
            slo.good_total() + slo.bad_total() >= 1,
            "{name} saw at least one event"
        );
        assert!(!slo.is_alerting(), "{name} must not alert on a clean run");
    }
    assert_eq!(world.metrics().counter("slo.alerts_fired"), 0);
}

#[test]
fn aborted_migrations_survive_aggressive_sampling() {
    // Drop every transfer: the migration exhausts its retries and rolls
    // back. Even at keep_fraction = 0 the aborted trace must be kept.
    let (mut world, mut sim) = observed_world(
        full_pipeline(0.0),
        Some(FaultOptions::with_drop_probability(1.0)),
    );
    run_follow_me(&mut world, &mut sim);
    assert!(world.metrics().counter("migration.rollbacks") >= 1);

    let tel = world.telemetry();
    let stats = tel.sampler_stats().unwrap();
    assert_eq!(stats.unaccounted(), 0);
    let root = tel
        .spans_named("migration")
        .find(|s| s.attr("status") == Some(&AttrValue::Str("aborted".into())))
        .expect("aborted trace kept despite keep_fraction = 0");
    assert!(
        root.attr("attempts").is_some(),
        "abort root records its attempt count"
    );
    assert!(
        tel.spans_named("migration.rollback")
            .any(|s| tel.root_of(s.id) == root.id),
        "rollback child kept with its trace"
    );

    // The failure fed the completion SLO as a bad event.
    let slo = world
        .slo_monitor()
        .and_then(|m| m.get(SLO_MIGRATION_COMPLETION))
        .unwrap();
    assert!(slo.bad_total() >= 1, "rollback counted against the SLO");
}

#[test]
fn defaults_off_leaves_passthrough_collector_and_bare_wire() {
    let (mut world, mut sim) = observed_world(ObservabilityOptions::default(), None);
    run_follow_me(&mut world, &mut sim);
    assert_eq!(world.migration_log().len(), 1);

    let tel = world.telemetry();
    assert!(tel.sampler_options().is_none());
    assert!(tel.sampler_stats().is_none());
    assert!(world.slo_monitor().is_none());
    // No ctx rode the wire, so no destination-side ctx spans exist and
    // no span carries a trace_id attribute.
    assert_eq!(tel.spans_named("migration.checkin").count(), 0);
    assert!(tel.spans().iter().all(|s| s.attr("trace_id").is_none()));
    assert_eq!(world.metrics().counter("slo.alerts_fired"), 0);
}

#[test]
fn sampler_drops_healthy_traces_at_zero_keep_fraction() {
    let (mut world, mut sim) = observed_world(full_pipeline(0.0), None);
    run_follow_me(&mut world, &mut sim);
    assert_eq!(world.migration_log().len(), 1, "migration completed");

    let tel = world.telemetry();
    let stats = tel.sampler_stats().unwrap();
    assert_eq!(stats.unaccounted(), 0);
    // The healthy migration trace was sampled out...
    assert_eq!(tel.spans_named("migration").count(), 0);
    // ...and the drop is visible in the first-class counters, never silent.
    assert!(stats.spans_dropped > 0);
    assert!(stats.traces_dropped >= 1);
    // SLO accounting is independent of span sampling: the completion
    // still registered.
    let slo = world
        .slo_monitor()
        .and_then(|m| m.get(SLO_MIGRATION_COMPLETION))
        .unwrap();
    assert!(slo.good_total() >= 1);
}

#[test]
fn latency_slo_counts_slow_migrations_as_bad() {
    // A 1 ms latency target makes every real migration "bad" — the
    // latency SLO must reflect that even though completion stays good.
    let obs = ObservabilityOptions {
        sampler: None,
        propagate_trace_ctx: false,
        slo: Some(SloOptions {
            migration_latency_target: SimDuration::from_millis(1),
            ..SloOptions::default()
        }),
    };
    let (mut world, mut sim) = observed_world(obs, None);
    run_follow_me(&mut world, &mut sim);
    assert_eq!(world.migration_log().len(), 1);
    let monitor = world.slo_monitor().unwrap();
    assert!(monitor.get(SLO_MIGRATION_LATENCY).unwrap().bad_total() >= 1);
    assert!(monitor.get(SLO_MIGRATION_COMPLETION).unwrap().good_total() >= 1);
}

/// One `migrate_now` in `mode` from the office PC to the lab PC, with
/// trace-context propagation on or off. Returns the report's shipped
/// bytes and, with propagation on, the context stamped onto the cargo (as
/// the destination's check-in span decoded it).
fn shipped_bytes(mode: MobilityMode, propagate: bool) -> (u64, Option<TraceContext>) {
    let obs = ObservabilityOptions {
        propagate_trace_ctx: propagate,
        ..ObservabilityOptions::default()
    };
    let (mut world, mut sim) = observed_world(obs, None);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "player",
        HostId(0),
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        HostId(1),
        mode,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run_until(&mut world, SimTime::from_secs(60));
    let log = world.migration_log();
    assert_eq!(log.len(), 1, "{mode:?} completed");
    let stamp = world
        .telemetry()
        .spans_named("migration.checkin")
        .next()
        .map(|checkin| TraceContext {
            trace_id: match checkin.attr("trace_id") {
                Some(AttrValue::U64(id)) => *id,
                other => panic!("trace_id attr: {other:?}"),
            },
            parent_span: u64::from(checkin.parent.expect("parented").raw()),
        });
    (log[0].shipped_bytes, stamp)
}

#[test]
fn both_modes_report_the_stamped_bytes_the_platform_bills() {
    for mode in [MobilityMode::FollowMe, MobilityMode::CloneDispatch] {
        let (bare, no_stamp) = shipped_bytes(mode, false);
        let (stamped, stamp) = shipped_bytes(mode, true);
        assert!(no_stamp.is_none());
        let stamp = stamp.expect("propagation stamps the cargo");
        assert_eq!(
            stamped - bare,
            stamp.encoded_len() as u64,
            "{mode:?}: the report carries the stamp's bytes"
        );
    }
}
