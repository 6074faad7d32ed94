//! Property tests of the middleware's migration invariants: applications
//! are never lost, state survives arbitrary follow-me chains, replica
//! synchronization converges, phase timings are sane, and copies of an
//! application's state never see each other's writes.

use std::collections::BTreeMap;

use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, Application, BindingPolicy, Component, ComponentKind, ComponentSet,
    Coordinator, DeviceProfile, Middleware, MobilityMode, ObserverRec, Snapshot, SnapshotManager,
    UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator};
use mdagent_wire::{impl_wire_struct, to_bytes};
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

/// A coordinator as the model keeps it: every field an owned, unshared
/// value, in the coordinator's wire order, so a clone is a deep copy and
/// the encoding is the one the coordinator must produce.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    state: BTreeMap<String, String>,
    version: u64,
    observers: Vec<ObserverRec>,
    sync_links: Vec<u32>,
}

impl_wire_struct!(Model {
    state,
    version,
    observers,
    sync_links
});

impl Model {
    fn set(&mut self, key: &str, value: &str) {
        self.state.insert(key.to_owned(), value.to_owned());
        self.version += 1;
    }

    fn apply_remote(&mut self, key: &str, value: &str, version: u64) {
        if version > self.version {
            self.state.insert(key.to_owned(), value.to_owned());
            self.version = version;
        }
    }

    fn link(&mut self, app: u32) {
        if !self.sync_links.contains(&app) {
            self.sync_links.push(app);
        }
    }
}

/// Values on both sides of the one-byte length prefix, and wide text.
fn state_value(index: u8) -> String {
    match index % 5 {
        0 => String::new(),
        1 => "92000".to_owned(),
        2 => "é∞🎵".to_owned(),
        3 => "p".repeat(127),
        _ => "q".repeat(130),
    }
}

/// `coordinator` holds exactly what `model` does.
fn assert_matches(coordinator: &Coordinator, model: &Model, what: &str) {
    let state: BTreeMap<String, String> = coordinator
        .state_map()
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert_eq!(state, model.state, "{what}: state");
    assert_eq!(coordinator.version(), model.version, "{what}: version");
    assert_eq!(to_bytes(coordinator), to_bytes(model), "{what}: bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Live applications, the captures a test holds as cargo does, and the
    /// snapshots the manager retains share state maps in every way a
    /// migration shares them: captures and history entries, rollback
    /// restores, restores by move of a copy of a capture (a checked
    /// check-in), and clone-dispatch replicas. After every step each copy
    /// still holds exactly what a deep-copied model of it holds, so none
    /// saw a write made to another.
    #[test]
    fn copies_of_state_never_see_each_others_writes(
        steps in proptest::collection::vec((0u8..7, 0usize..64, 0u8..6, 0u8..10), 1..48),
    ) {
        let mut mgr = SnapshotManager::new(3);
        let mut live: Vec<(Application, Model)> = (0..3u32)
            .map(|i| (Application::new(AppId(i), "player", HostId(i)), Model::default()))
            .collect();
        let mut held: Vec<(Snapshot, Model)> = Vec::new();
        for (op, pick, key, arg) in steps {
            let copy = pick % live.len();
            let key = format!("k{key}");
            let (app, model) = &mut live[copy];
            match op {
                0 | 1 => {
                    let value = state_value(arg);
                    app.coordinator.set_state(&key, &value);
                    model.set(&key, &value);
                }
                // A remote update two versions behind to two ahead: the
                // first three are stale and write nothing.
                2 => {
                    let value = state_value(arg);
                    let version = (model.version + u64::from(arg % 5)).saturating_sub(2);
                    let applied = app.coordinator.apply_remote(&key, &value, version);
                    prop_assert_eq!(applied, version > model.version);
                    model.apply_remote(&key, &value, version);
                }
                3 => {
                    let snap = mgr.capture(app);
                    held.push((snap, model.clone()));
                }
                // A rollback restores the manager's retained snapshot when
                // it still has it, else the held capture.
                4 if !held.is_empty() => {
                    let (snap, captured) = &held[usize::from(arg) % held.len()];
                    let source = mgr.by_sequence("player", snap.sequence).unwrap_or(snap);
                    SnapshotManager::restore(source, app).unwrap();
                    *model = captured.clone();
                }
                // A check-in deploys a copy of a capture by move.
                5 if !held.is_empty() => {
                    let (snap, captured) = &held[usize::from(arg) % held.len()];
                    let mut shipped = snap.clone();
                    SnapshotManager::restore_by_move(&mut shipped, app).unwrap();
                    prop_assert_eq!(&shipped, &snap.header());
                    *model = captured.clone();
                }
                // A clone-dispatch replica: a fresh capture of the copy,
                // installed by move, linked both ways.
                6 => {
                    let mut snap = mgr.capture(app);
                    held.push((snap.clone(), model.clone()));
                    let replica_id = AppId(live.len() as u32);
                    let mut replica = Application::new(replica_id, "player", HostId(9));
                    SnapshotManager::restore_by_move(&mut snap, &mut replica).unwrap();
                    let mut replica_model = live[copy].1.clone();
                    replica.coordinator.add_sync_link(AppId(copy as u32));
                    replica_model.link(copy as u32);
                    let (source, source_model) = &mut live[copy];
                    source.coordinator.add_sync_link(replica_id);
                    source_model.link(replica_id.0);
                    live.push((replica, replica_model));
                }
                _ => {}
            }
            for (i, (app, model)) in live.iter().enumerate() {
                assert_matches(&app.coordinator, model, &format!("live copy {i}"));
            }
            for (snap, model) in &held {
                assert_matches(&snap.coordinator, model, &format!("capture {}", snap.sequence));
                if let Some(retained) = mgr.by_sequence("player", snap.sequence) {
                    prop_assert_eq!(retained, snap);
                    assert_matches(&retained.coordinator, model, "retained capture");
                }
            }
        }
    }
}
