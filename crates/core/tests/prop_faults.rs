//! Property tests of the fault-tolerant migration path: under seeded
//! per-link drop schedules every follow-me migration either completes
//! exactly once at the destination or rolls back with the application
//! resumed at the source, and every clone-dispatch either installs one
//! replica or aborts while the original keeps running — no lost
//! applications, no duplicates, no orphaned in-flight records, and every
//! telemetry span closed.

use mdagent_context::UserId;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile, FaultOptions,
    Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator};
use proptest::prelude::*;

/// The 2-hop inter-space topology: office {src — gw} over Ethernet, and
/// gw — dest across the gateway into the away space.
fn world_2hop(
    seed: u64,
    drop_probability: f64,
) -> (Middleware, Simulator<Middleware>, HostId, HostId) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", away, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.ethernet(src, gw).unwrap();
    b.gateway(gw, dest).unwrap();
    b.seed(seed)
        .faults(FaultOptions::with_drop_probability(drop_probability));
    let (world, sim) = b.build();
    (world, sim, src, dest)
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

/// Runs one faulted follow-me migration to completion and returns the
/// world for invariant checks.
fn run_one(seed: u64, drop_probability: f64) -> (Middleware, HostId, HostId) {
    run_mode(seed, drop_probability, MobilityMode::FollowMe)
}

/// Runs one faulted migration in `mode` to completion and returns the
/// world for invariant checks.
fn run_mode(seed: u64, drop_probability: f64, mode: MobilityMode) -> (Middleware, HostId, HostId) {
    let (mut world, mut sim, src, dest) = world_2hop(seed, drop_probability);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "faulted",
        src,
        components(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        dest,
        mode,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run(&mut world);
    (world, src, dest)
}

/// The exactly-once-or-rollback invariant bundle.
fn assert_invariants(world: &Middleware, src: HostId, dest: HostId) {
    assert_eq!(world.app_count(), 1, "no lost or duplicated applications");
    let app = world.apps().next().unwrap();
    assert_eq!(app.state, AppState::Running, "app must end up running");
    let completed = world.metrics().counter("migration.completed");
    let rollbacks = world.metrics().counter("migration.rollbacks");
    assert_eq!(
        completed + rollbacks,
        1,
        "exactly one outcome: completed={completed} rollbacks={rollbacks}"
    );
    if completed == 1 {
        assert_eq!(app.host, dest, "completed migration ends at destination");
    } else {
        assert_eq!(app.host, src, "rolled-back migration resumes at source");
    }
    assert_settled(world);
}

/// The install-once-or-abort invariant bundle for one clone-dispatch.
/// Returns how many replicas were installed (0 or 1).
fn assert_clone_invariants(world: &Middleware, src: HostId, dest: HostId) -> u64 {
    let completed = world.metrics().counter("migration.clones_completed");
    let aborts = world.metrics().counter("migration.clone_aborts");
    assert_eq!(
        completed + aborts,
        1,
        "exactly one outcome: completed={completed} aborts={aborts}"
    );
    assert_eq!(
        world.app_count() as u64,
        1 + completed,
        "one replica per installed clone, none for an aborted one"
    );
    let originals = world.apps().filter(|a| a.cloned_from.is_none()).count();
    assert_eq!(originals, 1, "the original application is never lost");
    for app in world.apps() {
        assert_eq!(
            app.state,
            AppState::Running,
            "{} must end up running",
            app.id
        );
        let expected = if app.cloned_from.is_some() { dest } else { src };
        assert_eq!(
            app.host, expected,
            "original at source, replica at destination"
        );
    }
    assert_settled(world);
    completed
}

/// No in-flight record is left behind and every span is closed.
fn assert_settled(world: &Middleware) {
    assert_eq!(world.in_flight_count(), 0, "no orphaned in-flight records");
    let open: Vec<_> = world
        .telemetry()
        .spans()
        .iter()
        .filter(|s| s.end.is_none())
        .map(|s| s.name.clone())
        .collect();
    assert!(open.is_empty(), "open spans after drain: {open:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every seeded drop schedule yields exactly-once-or-rollback.
    #[test]
    fn faulted_migration_completes_once_or_rolls_back(
        seed in any::<u64>(),
        drop_probability in 0.0f64..0.6,
    ) {
        let (world, src, dest) = run_one(seed, drop_probability);
        assert_invariants(&world, src, dest);
    }

    /// A clone lost in flight is aborted by its watchdog; one that lands
    /// installs exactly one replica. Either way the original keeps running
    /// at the source.
    #[test]
    fn faulted_clone_installs_once_or_aborts(
        seed in any::<u64>(),
        drop_probability in 0.0f64..0.6,
    ) {
        let (world, src, dest) = run_mode(seed, drop_probability, MobilityMode::CloneDispatch);
        assert_clone_invariants(&world, src, dest);
    }

    /// The fault schedule is a pure function of the seed: identical seeds
    /// reproduce identical retry/rollback/completion counts and traces.
    #[test]
    fn same_seed_same_outcome(seed in any::<u64>()) {
        let (a, _, _) = run_one(seed, 0.25);
        let (b, _, _) = run_one(seed, 0.25);
        for key in [
            "migration.completed",
            "migration.rollbacks",
            "migration.retries",
            "platform.transfer_drops",
        ] {
            assert_eq!(a.metrics().counter(key), b.metrics().counter(key), "{key}");
        }
        assert_eq!(
            a.apps().next().unwrap().host,
            b.apps().next().unwrap().host
        );
        assert_eq!(a.telemetry().spans().len(), b.telemetry().spans().len());
    }
}

/// The acceptance sweep pinned by the issue: at drop probability 0.2 on
/// the 2-hop inter-space topology, every run satisfies exactly-once or
/// rollback-with-resume.
#[test]
fn drop_probability_point_two_acceptance_sweep() {
    let mut completions = 0u64;
    let mut rollbacks = 0u64;
    for seed in 0..64u64 {
        let (world, src, dest) = run_one(seed, 0.2);
        assert_invariants(&world, src, dest);
        completions += world.metrics().counter("migration.completed");
        rollbacks += world.metrics().counter("migration.rollbacks");
    }
    assert_eq!(completions + rollbacks, 64);
    assert!(
        completions > 0,
        "retries should rescue most transfers at p=0.2"
    );
}

/// The clone property reaches both of its outcomes. At drop probability
/// 0.4 on the 2-hop topology, seeds 0..64 install 23 replicas and abort 41
/// clones; a change to clone timing under faults moves these counts.
#[test]
fn clone_sweep_installs_and_aborts() {
    let (mut installed, mut aborted) = (0u64, 0u64);
    for seed in 0..64u64 {
        let (world, src, dest) = run_mode(seed, 0.4, MobilityMode::CloneDispatch);
        let completed = assert_clone_invariants(&world, src, dest);
        installed += completed;
        aborted += 1 - completed;
    }
    assert_eq!((installed, aborted), (23, 41));
}

/// Retries are observable: a run that completed after drops records both
/// the drops and the retry nudges, and the trace carries the retry event.
#[test]
fn retry_path_is_traced() {
    for seed in 0..256u64 {
        let (world, _, dest) = run_one(seed, 0.35);
        let drops = world.metrics().counter("platform.transfer_drops");
        let retries = world.metrics().counter("migration.retries");
        if world.metrics().counter("migration.completed") == 1 && drops > 0 {
            assert!(retries >= drops, "each drop is answered by a retry");
            assert!(world.trace().contains("retry attempt"));
            assert_eq!(world.apps().next().unwrap().host, dest);
            return;
        }
    }
    panic!("no seed in 0..256 exercised the drop-then-complete path");
}

/// With faults configured but probability zero, nothing fires: no drops,
/// no retries, and the migration completes exactly as in fault-free runs.
#[test]
fn zero_probability_never_faults() {
    let (world, _, dest) = run_one(7, 0.0);
    assert_eq!(world.metrics().counter("migration.completed"), 1);
    assert_eq!(world.metrics().counter("platform.transfer_drops"), 0);
    assert_eq!(world.metrics().counter("migration.retries"), 0);
    assert_eq!(world.apps().next().unwrap().host, dest);
}

/// A rollback resumes the application in place and closes the migration
/// root span with an abort marker in the trace.
#[test]
fn exhausted_retries_roll_back_with_resume() {
    for seed in 0..512u64 {
        let (world, src, dest) = run_one(seed, 0.55);
        assert_invariants(&world, src, dest);
        if world.metrics().counter("migration.rollbacks") == 1 {
            assert!(world.trace().contains("ABORTED"));
            assert_eq!(world.apps().next().unwrap().host, src);
            assert_eq!(world.apps().next().unwrap().state, AppState::Running);
            let stats = world
                .metrics()
                .durations("migration.rollback_latency")
                .expect("rollback latency recorded");
            assert!(stats.count() >= 1);
            assert!(stats.max() > SimDuration::ZERO);
            return;
        }
    }
    panic!("no seed in 0..512 exhausted its retries at p=0.55");
}
