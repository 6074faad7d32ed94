//! Property tests of the onion layer stack: entry hooks fire
//! outermost-first, exit hooks in reverse, a `wrap_transfer`
//! short-circuit unwinds the entered outer layers' `on_abort` exactly
//! once each, and the empty stack drives migrations to the same
//! outcomes as the standard four-layer stack in fault-free runs (the
//! cross-cutting concerns observe the lifecycle; they do not steer it).

use std::cell::RefCell;
use std::rc::Rc;

use mdagent_agent::AgentId;
use mdagent_context::UserId;
use mdagent_core::{
    AbortReason, AppState, Arrival, BindingPolicy, Cargo, CargoDraft, CheckinFlow, Component,
    ComponentKind, ComponentSet, DeviceProfile, FlightSetup, InFlight, LayerStack, Middleware,
    MigrationLayer, MobilityMode, ResumeOutcome, TransferFlow, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, Simulator};
use proptest::prelude::*;

type Log = Rc<RefCell<Vec<(usize, &'static str)>>>;

/// Records every hook invocation as `(layer index, hook name)`;
/// optionally rejects at `wrap_transfer`.
#[derive(Debug)]
struct Recorder {
    tag: usize,
    log: Log,
    reject_transfer: bool,
}

impl Recorder {
    fn hit(&self, hook: &'static str) {
        self.log.borrow_mut().push((self.tag, hook));
    }
}

impl MigrationLayer for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn before_wrap(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _draft: &mut CargoDraft,
    ) {
        self.hit("before_wrap");
    }

    fn before_depart(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _setup: &mut FlightSetup,
    ) {
        self.hit("before_depart");
    }

    fn after_suspend(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _ma: &AgentId,
    ) {
        self.hit("after_suspend");
    }

    fn before_transfer(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _ma: &AgentId,
        _cargo: &mut Cargo,
    ) {
        self.hit("before_transfer");
    }

    fn wrap_transfer(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _ma: &AgentId,
        _cargo: &Cargo,
    ) -> TransferFlow {
        self.hit("wrap_transfer");
        if self.reject_transfer {
            TransferFlow::Reject("recorder says no")
        } else {
            TransferFlow::Proceed
        }
    }

    fn wrap_checkin(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _ma: &AgentId,
        _cargo: &Cargo,
        _arrival: &mut Arrival,
    ) -> CheckinFlow {
        self.hit("wrap_checkin");
        CheckinFlow::Proceed
    }

    fn before_checkin(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _cargo: &Cargo,
        _flight: Option<&InFlight>,
        _arrival: &mut Arrival,
    ) {
        self.hit("before_checkin");
    }

    fn after_checkin(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _cargo: &Cargo,
        _flight: Option<&InFlight>,
        _arrival: &Arrival,
    ) {
        self.hit("after_checkin");
    }

    fn before_resume(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _outcome: &ResumeOutcome,
    ) {
        self.hit("before_resume");
    }

    fn after_resume(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _outcome: &ResumeOutcome,
    ) {
        self.hit("after_resume");
    }

    fn on_abort(
        &mut self,
        _world: &mut Middleware,
        _sim: &mut Simulator<Middleware>,
        _ma: &AgentId,
        _flight: Option<&InFlight>,
        _reason: AbortReason,
    ) {
        self.hit("on_abort");
    }
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

/// Runs one fault-free follow-me migration under a stack of `n` recorder
/// layers, with layer `reject_at` (if any) refusing the transfer.
/// Returns the hook log and the drained world.
fn run_recorded(n: usize, reject_at: Option<usize>) -> (Vec<(usize, &'static str)>, Middleware) {
    let log: Log = Rc::default();
    let mut b = Middleware::builder();
    let office = b.space("office");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.ethernet(src, dest).unwrap();
    b.seed(3);
    b.layers(
        (0..n)
            .map(|tag| {
                Box::new(Recorder {
                    tag,
                    log: Rc::clone(&log),
                    reject_transfer: reject_at == Some(tag),
                }) as Box<dyn MigrationLayer>
            })
            .collect(),
    );
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "recorded",
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
        MobilityMode::FollowMe,
        BindingPolicy::Adaptive,
    )
    .unwrap();
    sim.run(&mut world);
    let entries = log.borrow().clone();
    (entries, world)
}

/// Layer indices that fired `hook`, in firing order.
fn order_of(log: &[(usize, &'static str)], hook: &str) -> Vec<usize> {
    log.iter()
        .filter(|(_, h)| *h == hook)
        .map(|(tag, _)| *tag)
        .collect()
}

const ENTRY_HOOKS: [&str; 7] = [
    "before_wrap",
    "before_depart",
    "after_suspend",
    "before_transfer",
    "wrap_transfer",
    "wrap_checkin",
    "before_checkin",
];
const EXIT_HOOKS: [&str; 3] = ["after_checkin", "before_resume", "after_resume"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Entry hooks run outermost-first; exit hooks run in reverse; every
    /// layer sees every phase of a completed migration exactly once.
    #[test]
    fn hooks_fire_in_onion_order(n in 1usize..6) {
        let (log, world) = run_recorded(n, None);
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        for hook in ENTRY_HOOKS {
            prop_assert_eq!(&order_of(&log, hook), &forward, "{}", hook);
        }
        for hook in EXIT_HOOKS {
            prop_assert_eq!(&order_of(&log, hook), &backward, "{}", hook);
        }
        prop_assert!(order_of(&log, "on_abort").is_empty());
        prop_assert_eq!(world.in_flight_count(), 0);
    }

    /// A `wrap_transfer` rejection short-circuits the chain: the layers
    /// inside the rejecting one never see the transfer, the entered outer
    /// layers unwind through `on_abort` exactly once each (reversed), and
    /// the application rolls back to Running at the source.
    #[test]
    fn transfer_rejection_unwinds_entered_layers_once(
        n in 1usize..6,
        reject in 0usize..6,
    ) {
        let reject = reject % n;
        let (log, world) = run_recorded(n, Some(reject));
        // The chain stopped at the rejecting layer.
        let entered: Vec<usize> = (0..=reject).collect();
        prop_assert_eq!(&order_of(&log, "wrap_transfer"), &entered);
        // Outer layers unwound in reverse, exactly once each; the
        // rejecting layer itself does not receive on_abort.
        let unwound: Vec<usize> = (0..reject).rev().collect();
        prop_assert_eq!(&order_of(&log, "on_abort"), &unwound);
        // Nothing past the rejection: no check-in, no resume.
        for hook in ["wrap_checkin", "before_checkin", "after_checkin", "before_resume", "after_resume"] {
            prop_assert!(order_of(&log, hook).is_empty(), "{} fired", hook);
        }
        prop_assert_eq!(world.in_flight_count(), 0);
        let app = world.apps().next().unwrap();
        prop_assert_eq!(app.state, AppState::Running);
        prop_assert_eq!(world.metrics().counter("migration.completed"), 0);
        prop_assert_eq!(world.metrics().counter("ma.departure_rejected"), 1);
    }
}

/// One fig8/9/10-shaped fault-free run: a 2-space, 3-host world, one
/// deploy, one migration. Returns the world after the drain.
fn run_sweep_world(
    layers: Vec<Box<dyn MigrationLayer>>,
    mode: MobilityMode,
    policy: BindingPolicy,
    data_kb: usize,
) -> (Middleware, HostId, HostId) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", away, CpuFactor::new(2.0), DeviceProfile::handheld);
    b.ethernet(src, gw).unwrap();
    b.gateway(gw, dest).unwrap();
    b.seed(17);
    b.layers(layers);
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
    (world, src, dest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The empty stack is the bare skeleton, and the skeleton alone
    /// decides migration outcomes: under the standard four layers and
    /// under no layers at all, fault-free runs produce identical
    /// migration reports (phases, bytes, completion instants) and leave
    /// the application in the same place.
    #[test]
    fn empty_stack_matches_standard_stack_outcomes(
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
        let (standard, _, _) = run_sweep_world(LayerStack::standard(), mode, policy, data_kb);
        let (bare, _, _) = run_sweep_world(Vec::new(), mode, policy, data_kb);
        prop_assert_eq!(standard.migration_log(), bare.migration_log());
        prop_assert_eq!(standard.app_count(), bare.app_count());
        let s_apps: Vec<_> = standard.apps().map(|a| (a.name.clone(), a.host, a.state)).collect();
        let b_apps: Vec<_> = bare.apps().map(|a| (a.name.clone(), a.host, a.state)).collect();
        prop_assert_eq!(s_apps, b_apps);
        prop_assert_eq!(standard.in_flight_count(), 0);
        prop_assert_eq!(bare.in_flight_count(), 0);
        // The concerns themselves only ran under the standard stack.
        prop_assert!(standard.telemetry().spans().len() > bare.telemetry().spans().len());
    }
}
