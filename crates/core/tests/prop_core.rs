//! Property tests of the middleware's migration invariants: applications
//! are never lost, state survives arbitrary follow-me chains, replica
//! synchronization converges, and phase timings are sane.

use mdagent_context::UserId;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile, Middleware,
    MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator};
use proptest::prelude::*;

/// A fully connected four-host, four-space world.
fn world4() -> (Middleware, Simulator<Middleware>, Vec<HostId>) {
    let mut b = Middleware::builder();
    let mut hosts = Vec::new();
    for i in 0..4 {
        let space = b.space(&format!("s{i}"));
        hosts.push(b.host(
            &format!("h{i}"),
            space,
            CpuFactor::REFERENCE,
            DeviceProfile::pc,
        ));
    }
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.gateway(hosts[i], hosts[j]).unwrap();
        }
    }
    let (world, sim) = b.build();
    (world, sim, hosts)
}

fn components() -> ComponentSet {
    [
        Component::synthetic("logic", ComponentKind::Logic, 90_000),
        Component::synthetic("ui", ComponentKind::Presentation, 40_000),
        Component::synthetic("data", ComponentKind::Data, 250_000),
    ]
    .into_iter()
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary follow-me chains never lose the application or its state,
    /// and every migration report has positive migrate time and a
    /// consistent destination.
    #[test]
    fn follow_me_chains_preserve_state(
        hops in proptest::collection::vec(0usize..4, 1..6),
        policy_static in any::<bool>(),
    ) {
        let (mut world, mut sim, hosts) = world4();
        let policy = if policy_static { BindingPolicy::Static } else { BindingPolicy::Adaptive };
        let app = Middleware::deploy_app(
            &mut world, &mut sim, "chained", hosts[0], components(),
            UserProfile::new(UserId(0)).with_preference("volume", "9"),
        ).unwrap();
        Middleware::update_app_state(&mut world, &mut sim, app, "counter", "123").unwrap();
        sim.run(&mut world);

        let mut current = hosts[0];
        let mut expected_migrations = 0usize;
        for &hop in &hops {
            let dest = hosts[hop];
            if dest == current {
                continue;
            }
            Middleware::migrate_now(&mut world, &mut sim, app, dest, MobilityMode::FollowMe, policy).unwrap();
            sim.run(&mut world);
            current = dest;
            expected_migrations += 1;
        }
        let a = world.app(app).unwrap();
        prop_assert_eq!(a.state, AppState::Running);
        prop_assert_eq!(a.host, current);
        prop_assert_eq!(a.coordinator.state("counter"), Some("123"));
        prop_assert_eq!(a.user_profile.preference("volume"), Some("9"));
        prop_assert_eq!(world.migration_log().len(), expected_migrations);
        for report in world.migration_log() {
            prop_assert!(report.phases.migrate > SimDuration::ZERO);
            prop_assert!(report.phases.suspend > SimDuration::ZERO);
            prop_assert!(report.phases.resume > SimDuration::ZERO);
            prop_assert!(report.shipped_bytes > 0);
        }
        // The app count never changes under follow-me.
        prop_assert_eq!(world.apps().count(), 1);
    }

    /// Under static binding, the data always arrives; under adaptive
    /// binding with no provisioning, data streams remotely and the shipped
    /// bytes are strictly smaller.
    #[test]
    fn policy_controls_payload(hop in 1usize..4) {
        let run = |policy: BindingPolicy| {
            let (mut world, mut sim, hosts) = world4();
            let app = Middleware::deploy_app(
                &mut world, &mut sim, "payload", hosts[0], components(),
                UserProfile::new(UserId(0)),
            ).unwrap();
            sim.run(&mut world);
            Middleware::migrate_now(&mut world, &mut sim, app, hosts[hop], MobilityMode::FollowMe, policy).unwrap();
            sim.run(&mut world);
            let has_data = world.app(app).unwrap().components.has_kind(ComponentKind::Data);
            (world.migration_log()[0].shipped_bytes, has_data)
        };
        let (static_bytes, static_has_data) = run(BindingPolicy::Static);
        let (adaptive_bytes, adaptive_has_data) = run(BindingPolicy::Adaptive);
        prop_assert!(static_has_data);
        prop_assert!(!adaptive_has_data);
        prop_assert!(adaptive_bytes < static_bytes);
    }

    /// Replica synchronization converges: after any sequence of state
    /// updates at the source, all replicas end at the source's version.
    #[test]
    fn replica_sync_converges(
        replica_hosts in proptest::collection::hash_set(1usize..4, 1..4),
        updates in proptest::collection::vec((0u8..3, 0u32..100), 1..12),
    ) {
        let (mut world, mut sim, hosts) = world4();
        let app = Middleware::deploy_app(
            &mut world, &mut sim, "synced", hosts[0], components(),
            UserProfile::new(UserId(0)),
        ).unwrap();
        sim.run(&mut world);
        for &h in &replica_hosts {
            Middleware::migrate_now(
                &mut world, &mut sim, app, hosts[h],
                MobilityMode::CloneDispatch, BindingPolicy::Adaptive,
            ).unwrap();
            sim.run(&mut world);
        }
        let replicas: Vec<_> = world.apps().filter(|a| a.is_replica()).map(|a| a.id).collect();
        prop_assert_eq!(replicas.len(), replica_hosts.len());

        for (key, value) in &updates {
            Middleware::update_app_state(
                &mut world, &mut sim, app, &format!("k{key}"), &value.to_string(),
            ).unwrap();
        }
        sim.run(&mut world);

        let source_state = world.app(app).unwrap().coordinator.state_map().clone();
        let source_version = world.app(app).unwrap().coordinator.version();
        for replica in replicas {
            let r = world.app(replica).unwrap();
            prop_assert_eq!(r.coordinator.version(), source_version, "replica {} behind", replica);
            prop_assert_eq!(r.coordinator.state_map(), &source_state);
        }
    }

    /// Migration timing is monotone in payload: shipping more bytes never
    /// takes less total time (same route, same policy).
    #[test]
    fn total_time_monotone_in_payload(small in 100_000usize..1_000_000, extra in 100_000usize..5_000_000) {
        let run = |bytes: usize| {
            let (mut world, mut sim, hosts) = world4();
            let app = Middleware::deploy_app(
                &mut world, &mut sim, "mono", hosts[0],
                [
                    Component::synthetic("logic", ComponentKind::Logic, 90_000),
                    Component::synthetic("data", ComponentKind::Data, bytes),
                ].into_iter().collect(),
                UserProfile::new(UserId(0)),
            ).unwrap();
            sim.run(&mut world);
            Middleware::migrate_now(&mut world, &mut sim, app, hosts[1], MobilityMode::FollowMe, BindingPolicy::Static).unwrap();
            sim.run(&mut world);
            world.migration_log()[0].phases.total()
        };
        prop_assert!(run(small) <= run(small + extra));
    }
}
