//! The onion layer chain around the migration lifecycle.
//!
//! Every migration runs the same fixed skeleton — suspend → wrap →
//! transfer → check-in → resume — but the cross-cutting concerns that
//! accreted around it over time (telemetry spans, fault watchdogs and
//! rollback, content elision and snapshot deltas, exactly-once check-in,
//! SLO feeds) are *policies*, not skeleton. This module restructures them
//! as a [`LayerStack`] of [`MigrationLayer`]s composed onion-style:
//! before/entry hooks fire first-in-first-called, after/exit hooks fire in
//! reverse order, and the two `wrap_*` hooks may short-circuit the wire
//! operation they guard (the unwind still runs the entered outer layers'
//! [`MigrationLayer::on_abort`] exactly once).
//!
//! A concern is on exactly when its layer is in the stack, and the layer
//! owns its state. The default stack — [`LayerStack::standard`] —
//! reproduces the pre-refactor inline behavior bit-for-bit:
//!
//! | Layer | Concern |
//! |-------|---------|
//! | [`TelemetryLayer`] | migration spans + wire trace-context propagation |
//! | [`FaultRetryLayer`] | watchdogs, bounded backoff, rollback |
//! | [`ExactlyOnceLayer`] | sequence-guarded duplicate/orphan check-in |
//! | [`SloLayer`] | burn-rate SLO feeds |
//!
//! [`DataPathLayer`] (content-cache elision + snapshot deltas) joins the
//! stack innermost when the builder is asked for the optimized data path.
//! Policy layers drop in without touching the skeleton:
//! [`AdmissionControlLayer`] caps in-flight migrations per destination
//! space purely through [`MigrationLayer::wrap_transfer`]. See DESIGN.md
//! §15 for the hook-by-hook catalog and a "write your own layer" guide.
//!
//! Hooks run with the stack checked out of the world, so a hook must not
//! synchronously re-enter the migration lifecycle (scheduling future
//! events — as the fault layer's watchdogs do — is fine).

mod admission;
mod datapath;
mod exactly_once;
mod fault_retry;
mod slo;
mod telemetry;

pub use admission::AdmissionControlLayer;
pub use datapath::DataPathLayer;
pub use exactly_once::ExactlyOnceLayer;
pub use fault_retry::FaultRetryLayer;
pub use slo::SloLayer;
pub use telemetry::TelemetryLayer;

use mdagent_agent::AgentId;
use mdagent_registry::ApplicationRecord;
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimTime, Simulator, SpanId};

use crate::app::AppId;
use crate::component::{Component, ComponentSet};
use crate::messages::Cargo;
use crate::middleware::Middleware;
use crate::mobility::MobilityMode;
use crate::snapshot::{Snapshot, SnapshotDelta};

/// Verdict of a [`MigrationLayer::wrap_transfer`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFlow {
    /// Let the transfer proceed to the next layer (and finally the wire).
    Proceed,
    /// Refuse the departure. The stack unwinds the already-entered outer
    /// layers' [`MigrationLayer::on_abort`] hooks and the driver aborts
    /// the flight (for follow-me, the application resumes at the source).
    Reject(&'static str),
}

/// Verdict of a [`MigrationLayer::wrap_checkin`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinFlow {
    /// Let the check-in proceed to the next layer (and finally deploy).
    Proceed,
    /// Swallow the check-in (duplicate or orphan arrival); the layer that
    /// dropped it has already done any acknowledgement bookkeeping.
    Drop,
}

/// Why a flight is being abandoned, as reported to
/// [`MigrationLayer::on_abort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A `wrap_transfer` layer (or the platform itself) refused the
    /// departure before any bytes moved.
    DepartureRejected,
    /// The destination rejected the arrived cargo at deploy time.
    ArrivalRejected,
}

/// Bookkeeping for one migration (or clone) currently in flight between
/// suspension and resume. Built by the driver from a [`FlightSetup`];
/// carried in the world and handed to the arrival-side hooks.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The migrated (or cloned) application.
    pub app: AppId,
    /// Simulated suspension cost already paid at the source.
    pub suspend: SimDuration,
    /// Instant the cargo left the source (refined at hand-over).
    pub departed_at: SimTime,
    /// Bytes shipped inside the agent.
    pub shipped_bytes: u64,
    /// Bytes left behind for remote streaming.
    pub remote_bytes: u64,
    /// Root telemetry span for the whole migration; ends at resume.
    pub span: SpanId,
    /// Open `migration.migrate` child span; ends on arrival.
    pub migrate_span: SpanId,
    /// Transfer attempts so far (1-based; the initial send is attempt 1).
    pub attempts: u32,
    /// Clone-dispatch flight: never retried, aborted on loss.
    pub cloned: bool,
    /// Source host — rollback target.
    pub src_host: HostId,
    /// Destination host.
    pub dest_host: HostId,
    /// Instant the migration was requested (watchdog latency base).
    pub started_at: SimTime,
    /// Per-attempt transfer window the watchdog waits before declaring a
    /// timeout. Zero when faults are disabled (no watchdog armed).
    pub timeout: SimDuration,
}

impl InFlight {
    /// Builds the flight record for a departure the layers just prepared.
    pub fn from_setup(setup: &FlightSetup, now: SimTime) -> InFlight {
        InFlight {
            app: setup.app,
            suspend: setup.suspend_cost,
            departed_at: now, // refined when cargo is handed over
            shipped_bytes: setup.wrapped_bytes,
            remote_bytes: setup.remote_bytes,
            span: setup.span,
            migrate_span: SpanId::DISABLED,
            attempts: 1,
            cloned: setup.mode != MobilityMode::FollowMe,
            src_host: setup.src_host,
            dest_host: setup.dest_host,
            started_at: now,
            timeout: setup.timeout,
        }
    }
}

/// The cargo under assembly during the wrap phase, before it is sealed.
/// Layers may rewrite what ships (the data-path layer swaps components
/// for digests and the full snapshot for a delta).
#[derive(Debug)]
pub struct CargoDraft {
    /// The application being wrapped.
    pub app: AppId,
    /// Follow-me or clone-dispatch.
    pub mode: MobilityMode,
    /// Source host.
    pub src_host: HostId,
    /// Destination host.
    pub dest_host: HostId,
    /// The snapshot to ship (a layer may replace it with a header stub).
    pub snapshot: Snapshot,
    /// The components to ship (a layer may elide some).
    pub components: ComponentSet,
    /// Bytes left behind for remote streaming.
    pub remote_bytes: u64,
    /// Components elided as `(name, digest)` pairs.
    pub elided: Vec<(String, u64)>,
    /// Delta shipped instead of the full snapshot, when profitable.
    pub snapshot_delta: Option<SnapshotDelta>,
    /// Bytes the elision saved.
    pub bytes_saved_cache: u64,
    /// Bytes the delta saved.
    pub bytes_saved_delta: u64,
}

/// Facts about a departure, filled in by the layers before the flight
/// record is created: the telemetry layer contributes the root span, the
/// fault layer the per-attempt timeout window.
#[derive(Debug)]
pub struct FlightSetup {
    /// The application departing.
    pub app: AppId,
    /// Follow-me or clone-dispatch.
    pub mode: MobilityMode,
    /// Source host.
    pub src_host: HostId,
    /// Destination host.
    pub dest_host: HostId,
    /// Sealed cargo wire length.
    pub wrapped_bytes: u64,
    /// Bytes left behind for remote streaming.
    pub remote_bytes: u64,
    /// Simulated suspension cost.
    pub suspend_cost: SimDuration,
    /// Bytes saved by content elision (telemetry attribute).
    pub bytes_saved_cache: u64,
    /// Bytes saved by the snapshot delta (telemetry attribute).
    pub bytes_saved_delta: u64,
    /// Migration root span (disabled unless a telemetry layer opens one).
    pub span: SpanId,
    /// Per-attempt watchdog window (zero unless a fault layer computes
    /// one).
    pub timeout: SimDuration,
}

/// Arrival-side scratch state threaded through the check-in hooks.
#[derive(Debug)]
pub struct Arrival {
    /// The wrap's snapshot capture sequence (the exactly-once identity).
    pub capture_sequence: u64,
    /// Snapshot resolved by a data-path layer (delta checked / full
    /// resend); the driver falls back to the cargo's own snapshot. The
    /// driver restores it by move, so the after-check-in hooks find only
    /// its [`header`](Snapshot::header) here: name and sequence.
    pub snapshot: Option<Snapshot>,
    /// Elided components a data-path layer materialized from the store.
    pub components: Vec<Component>,
    /// Unscaled rebind cost the driver computed.
    pub rebind_cost: SimDuration,
    /// Unscaled adaptation cost the driver computed.
    pub adapt_cost: SimDuration,
    /// Scaled total resume cost.
    pub resume_cost: SimDuration,
    /// Number of bindings rebound (telemetry attribute).
    pub rebind_bindings: usize,
    /// Number of adaptation actions (telemetry attribute).
    pub adapt_actions: usize,
    /// Destination CPU factor (for phase-window scaling).
    pub cpu: CpuFactor,
    /// Replica installed by a clone arrival, if any.
    pub replica: Option<AppId>,
}

impl Arrival {
    /// Fresh arrival state for a cargo with the given capture sequence.
    pub fn new(capture_sequence: u64) -> Arrival {
        Arrival {
            capture_sequence,
            snapshot: None,
            components: Vec::new(),
            rebind_cost: SimDuration::ZERO,
            adapt_cost: SimDuration::ZERO,
            resume_cost: SimDuration::ZERO,
            rebind_bindings: 0,
            adapt_actions: 0,
            cpu: CpuFactor::REFERENCE,
            replica: None,
        }
    }
}

/// A completed (or rolled-forward) resume, as reported to the resume
/// hooks.
#[derive(Debug, Clone, Copy)]
pub struct ResumeOutcome {
    /// The application that resumed.
    pub app: AppId,
    /// The migration root span (disabled when no telemetry layer ran).
    pub root: SpanId,
    /// Request-to-resume latency (suspend + migrate + resume).
    pub latency: SimDuration,
}

/// One cross-cutting concern wrapped around the migration lifecycle.
///
/// Every hook defaults to a pass-through, so a layer implements only the
/// phases it cares about, and keeps the state of its concern in itself.
/// Lifecycle hooks receive the world with the stack checked out: they may
/// mutate state and schedule future events, but must not synchronously
/// re-enter the migration lifecycle.
///
/// Entry hooks (`before_*`, `wrap_*` until a short-circuit, and the two
/// registration hooks) run in stack order; exit hooks (`after_*`,
/// `on_abort` during an unwind) run in reverse stack order.
pub trait MigrationLayer: std::fmt::Debug {
    /// Short stable name (diagnostics, DESIGN.md catalog).
    fn name(&self) -> &'static str;

    /// A registry record is about to advertise `components` (a
    /// deployment, a check-in or a provisioning). Runs outside the
    /// migration lifecycle and sees no world.
    fn before_register(&mut self, record: &mut ApplicationRecord, components: &ComponentSet) {
        let _ = (record, components);
    }

    /// `components` were preinstalled on `host`, before any migration
    /// brings them. Sees no world.
    fn on_provision(&mut self, host: HostId, components: &ComponentSet) {
        let _ = (host, components);
    }

    /// Wrap phase: the cargo is assembled but not yet sealed.
    fn before_wrap(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        draft: &mut CargoDraft,
    ) {
        let _ = (world, sim, draft);
    }

    /// The cargo is sealed and costed; the flight record is about to be
    /// created from `setup`.
    fn before_depart(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        setup: &mut FlightSetup,
    ) {
        let _ = (world, sim, setup);
    }

    /// The flight record exists and the suspension is scheduled.
    fn after_suspend(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
    ) {
        let _ = (world, sim, ma);
    }

    /// The suspension cost has elapsed; the cargo is about to be handed
    /// to the mobile agent (last chance to stamp the wire).
    fn before_transfer(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &mut Cargo,
    ) {
        let _ = (world, sim, ma, cargo);
    }

    /// Around the wire departure: may refuse it. On a rejection the
    /// already-entered outer layers unwind through
    /// [`MigrationLayer::on_abort`] exactly once each, in reverse order.
    fn wrap_transfer(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &Cargo,
    ) -> TransferFlow {
        let _ = (world, sim, ma, cargo);
        TransferFlow::Proceed
    }

    /// Around the destination check-in: may swallow a duplicate or
    /// orphan arrival.
    fn wrap_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &Cargo,
        arrival: &mut Arrival,
    ) -> CheckinFlow {
        let _ = (world, sim, ma, cargo, arrival);
        CheckinFlow::Proceed
    }

    /// The flight is accepted at the destination; runs before the
    /// application (or replica) is mutated. `flight` is `None` for an
    /// orphan clone arrival that installs anyway.
    fn before_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &mut Arrival,
    ) {
        let _ = (world, sim, cargo, flight, arrival);
    }

    /// The application (or replica) is installed and costed; runs in
    /// reverse order before the resume is scheduled.
    fn after_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &Arrival,
    ) {
        let _ = (world, sim, cargo, flight, arrival);
    }

    /// The resume cost has elapsed; runs (in reverse order) before the
    /// driver emits its `Resumed`/`ReplicaRunning` trace event.
    fn before_resume(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        outcome: &ResumeOutcome,
    ) {
        let _ = (world, sim, outcome);
    }

    /// The resume is fully recorded; runs in reverse order.
    fn after_resume(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        outcome: &ResumeOutcome,
    ) {
        let _ = (world, sim, outcome);
    }

    /// The flight is being abandoned (departure refused or arrival
    /// rejected). Cleanup of the flight record itself is owned by the
    /// driver/fault machinery; layers release their own state here.
    /// `flight` is the record being abandoned (already out of the world's
    /// in-flight table on the arrival side).
    fn on_abort(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        flight: Option<&InFlight>,
        reason: AbortReason,
    ) {
        let _ = (world, sim, ma, flight, reason);
    }
}

/// An ordered chain of [`MigrationLayer`]s. The first layer is the
/// outermost of the onion: first called on the way in, last on the way
/// out.
#[derive(Debug, Default)]
pub struct LayerStack {
    layers: Vec<Box<dyn MigrationLayer>>,
}

impl LayerStack {
    /// A stack over the given layers, outermost first. An empty vector
    /// yields the bare lifecycle skeleton with no cross-cutting concerns
    /// at all (no spans, no watchdogs, no elision, no duplicate guard,
    /// no SLO feeds).
    pub fn new(layers: Vec<Box<dyn MigrationLayer>>) -> LayerStack {
        LayerStack { layers }
    }

    /// The default four-layer stack, equivalent to the pre-refactor
    /// inline code paths (and byte-identical in every default
    /// configuration).
    pub fn standard() -> Vec<Box<dyn MigrationLayer>> {
        vec![
            Box::new(TelemetryLayer),
            Box::new(FaultRetryLayer),
            Box::<ExactlyOnceLayer>::default(),
            Box::new(SloLayer),
        ]
    }

    /// Appends a layer at the innermost position.
    pub fn push(&mut self, layer: Box<dyn MigrationLayer>) {
        self.layers.push(layer);
    }

    /// Runs every layer's [`MigrationLayer::before_register`].
    pub(crate) fn before_register(
        &mut self,
        record: &mut ApplicationRecord,
        components: &ComponentSet,
    ) {
        for layer in &mut self.layers {
            layer.before_register(record, components);
        }
    }

    /// Runs every layer's [`MigrationLayer::on_provision`].
    pub(crate) fn on_provision(&mut self, host: HostId, components: &ComponentSet) {
        for layer in &mut self.layers {
            layer.on_provision(host, components);
        }
    }
}

/// Checks the stack out of the world, runs `f` over it, and puts it
/// back. Hooks therefore see an empty stack if they (incorrectly)
/// re-enter the lifecycle synchronously.
fn with_stack<R>(
    world: &mut Middleware,
    f: impl FnOnce(&mut Middleware, &mut LayerStack) -> R,
) -> R {
    let mut stack = std::mem::take(&mut world.layers);
    let out = f(world, &mut stack);
    world.layers = stack;
    out
}

pub(crate) fn stack_before_wrap(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    draft: &mut CargoDraft,
) {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            layer.before_wrap(world, sim, draft);
        }
    });
}

pub(crate) fn stack_before_depart(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    setup: &mut FlightSetup,
) {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            layer.before_depart(world, sim, setup);
        }
    });
}

pub(crate) fn stack_after_suspend(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    ma: &AgentId,
) {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            layer.after_suspend(world, sim, ma);
        }
    });
}

pub(crate) fn stack_before_transfer(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    ma: &AgentId,
    cargo: &mut Cargo,
) {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            layer.before_transfer(world, sim, ma, cargo);
        }
    });
}

/// Runs the `wrap_transfer` chain. On the first rejection the entered
/// outer layers unwind through `on_abort` (reverse order, exactly once
/// each) and the rejection is returned.
pub(crate) fn stack_wrap_transfer(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    ma: &AgentId,
    cargo: &Cargo,
) -> TransferFlow {
    with_stack(world, |world, stack| {
        let mut entered = 0;
        let mut flow = TransferFlow::Proceed;
        for layer in &mut stack.layers {
            flow = layer.wrap_transfer(world, sim, ma, cargo);
            if flow != TransferFlow::Proceed {
                break;
            }
            entered += 1;
        }
        if flow == TransferFlow::Proceed {
            return flow;
        }
        let flight = world.in_flight.get(ma).cloned();
        for outer in stack.layers.iter_mut().take(entered).rev() {
            outer.on_abort(
                world,
                sim,
                ma,
                flight.as_ref(),
                AbortReason::DepartureRejected,
            );
        }
        flow
    })
}

/// Runs the `wrap_checkin` chain; the first `Drop` wins.
pub(crate) fn stack_wrap_checkin(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    ma: &AgentId,
    cargo: &Cargo,
    arrival: &mut Arrival,
) -> CheckinFlow {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            if layer.wrap_checkin(world, sim, ma, cargo, arrival) == CheckinFlow::Drop {
                return CheckinFlow::Drop;
            }
        }
        CheckinFlow::Proceed
    })
}

pub(crate) fn stack_before_checkin(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    cargo: &Cargo,
    flight: Option<&InFlight>,
    arrival: &mut Arrival,
) {
    with_stack(world, |world, stack| {
        for layer in &mut stack.layers {
            layer.before_checkin(world, sim, cargo, flight, arrival);
        }
    });
}

pub(crate) fn stack_after_checkin(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    cargo: &Cargo,
    flight: Option<&InFlight>,
    arrival: &Arrival,
) {
    with_stack(world, |world, stack| {
        for layer in stack.layers.iter_mut().rev() {
            layer.after_checkin(world, sim, cargo, flight, arrival);
        }
    });
}

pub(crate) fn stack_before_resume(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    outcome: &ResumeOutcome,
) {
    with_stack(world, |world, stack| {
        for layer in stack.layers.iter_mut().rev() {
            layer.before_resume(world, sim, outcome);
        }
    });
}

pub(crate) fn stack_after_resume(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    outcome: &ResumeOutcome,
) {
    with_stack(world, |world, stack| {
        for layer in stack.layers.iter_mut().rev() {
            layer.after_resume(world, sim, outcome);
        }
    });
}

impl Middleware {
    /// Asks the layer stack whether a departure may proceed to the wire.
    /// The unconfined front the mobile agent calls right before handing
    /// itself to the platform; a rejection has already unwound the
    /// entered layers' [`MigrationLayer::on_abort`] hooks.
    pub(crate) fn transfer_gate(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &Cargo,
    ) -> TransferFlow {
        stack_wrap_transfer(world, sim, ma, cargo)
    }
}

/// Notifies every layer (reverse order) that a flight is being
/// abandoned at arrival time.
pub(crate) fn stack_on_abort(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    ma: &AgentId,
    flight: Option<&InFlight>,
    reason: AbortReason,
) {
    with_stack(world, |world, stack| {
        for layer in stack.layers.iter_mut().rev() {
            layer.on_abort(world, sim, ma, flight, reason);
        }
    });
}
