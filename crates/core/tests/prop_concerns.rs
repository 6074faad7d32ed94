//! Property test of the migration concerns that only observe: tail
//! sampling and the SLO feeds record migrations but never steer them, so
//! fault-free runs with both on produce the same outcomes as the default
//! world.

use mdagent_context::UserId;
use mdagent_core::{
    BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile, Middleware, MobilityMode,
    ObservabilityOptions, SamplerOptions, SloOptions, UserProfile, SLO_MIGRATION_COMPLETION,
};
use mdagent_simnet::{CpuFactor, SimDuration};
use proptest::prelude::*;

/// One fig8/9/10-shaped fault-free run: a 2-space, 3-host world, one
/// deploy, one migration. Returns the world after the drain.
fn run_sweep_world(
    observability: ObservabilityOptions,
    mode: MobilityMode,
    policy: BindingPolicy,
    data_kb: usize,
) -> Middleware {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", away, CpuFactor::new(2.0), DeviceProfile::handheld);
    b.ethernet(src, gw).unwrap();
    b.gateway(gw, dest).unwrap();
    b.seed(17).observability(observability);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "sweep",
        src,
        [
            Component::synthetic("logic", ComponentKind::Logic, 90_000),
            Component::synthetic("ui", ComponentKind::Presentation, 40_000),
            Component::synthetic("data", ComponentKind::Data, data_kb * 1024),
        ]
        .into_iter()
        .collect::<ComponentSet>(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    Middleware::migrate_now(&mut world, &mut sim, app, dest, mode, policy).unwrap();
    sim.run(&mut world);
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under tail sampling that keeps no trace and with SLO monitoring
    /// on, fault-free runs produce the same migration reports (phases,
    /// bytes, completion instants) and placements as the default world,
    /// drain every flight, and keep fewer spans; the completion SLO is
    /// fed once.
    ///
    /// Trace-context propagation stays off. The transfer bills the
    /// stamped cargo while a follow-me's `shipped_bytes` is measured
    /// before stamping, so a stamped context lengthens the migrate phase
    /// (by 2–3 µs in this sweep) and a clone's shipped bytes, which are
    /// measured at arrival, grow by the stamp (DESIGN.md §13): a known
    /// billing gap, kept so the committed artifacts stay put.
    #[test]
    fn sampling_and_slo_feeds_never_change_a_migration(
        mode_is_clone in any::<bool>(),
        policy_is_static in any::<bool>(),
        data_kb in 16usize..2048,
    ) {
        let mode = if mode_is_clone {
            MobilityMode::CloneDispatch
        } else {
            MobilityMode::FollowMe
        };
        let policy = if policy_is_static {
            BindingPolicy::Static
        } else {
            BindingPolicy::Adaptive
        };
        let observed = ObservabilityOptions {
            sampler: Some(SamplerOptions {
                keep_fraction: 0.0,
                latency_threshold: SimDuration::MAX,
                ..SamplerOptions::default()
            }),
            propagate_trace_ctx: false,
            slo: Some(SloOptions::default()),
        };
        let plain = run_sweep_world(ObservabilityOptions::default(), mode, policy, data_kb);
        let observed = run_sweep_world(observed, mode, policy, data_kb);
        prop_assert_eq!(plain.migration_log(), observed.migration_log());
        prop_assert_eq!(plain.apps().count(), observed.apps().count());
        let placed = |w: &Middleware| -> Vec<_> {
            w.apps().map(|a| (a.name.clone(), a.host, a.state)).collect()
        };
        prop_assert_eq!(placed(&plain), placed(&observed));
        prop_assert_eq!(plain.in_flight_count(), 0);
        prop_assert_eq!(observed.in_flight_count(), 0);
        prop_assert!(observed.telemetry().spans().len() < plain.telemetry().spans().len());
        let completion = observed
            .slo_monitor()
            .and_then(|m| m.get(SLO_MIGRATION_COMPLETION))
            .map(|slo| slo.good_total());
        prop_assert_eq!(completion, Some(1));
    }
}
