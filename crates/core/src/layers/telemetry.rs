//! Telemetry: migration spans and wire trace-context propagation.
//!
//! Every telemetry-span call of the migration lifecycle: the detached
//! `migration` root with its per-phase children
//! (suspend/wrap/migrate/rebind/adapt/resume), the destination-side
//! check-in marker spans parented across the wire via
//! [`TraceContext`], and the status attributes the tail sampler keys on
//! (`attempts`, `status=rejected`).

use mdagent_agent::AgentId;
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimTime, SpanId};

use crate::app::AppId;
use crate::messages::{Cargo, TraceContext};
use crate::middleware::Middleware;

use super::datapath::Savings;
use super::InFlight;

/// What an arrival installed, as the phase spans under the root need it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Installed {
    /// A follow-me restore: the unscaled rebind and adaptation costs, and
    /// how many bindings were rebound and adaptation actions applied.
    FollowMe {
        rebind_cost: SimDuration,
        adapt_cost: SimDuration,
        bindings: usize,
        actions: usize,
    },
    /// A clone-dispatch arrival installed this replica.
    Replica(AppId),
}

/// Depart: opens the detached migration root (it rides the flight record
/// and closes at resume or rollback) and records the suspend span under
/// it. Returns the root.
pub(crate) fn depart(
    world: &mut Middleware,
    now: SimTime,
    cargo: &Cargo,
    src_host: HostId,
    wrapped_bytes: u64,
    suspend_cost: SimDuration,
    saved: Savings,
) -> SpanId {
    let root = world.env.telemetry.open("migration", None, now).detach();
    // Raw ids as integers: keeps this hot path free of formatting
    // allocations (the exporters render them).
    let tel = &mut world.env.telemetry;
    tel.attr(root, "app", u64::from(cargo.plan.app().0));
    tel.attr(root, "mode", cargo.plan.mode.tag());
    tel.attr(root, "src_host", u64::from(src_host.0));
    tel.attr(root, "dest_host", u64::from(cargo.plan.dest_host().0));
    tel.attr(root, "bytes", wrapped_bytes);
    if saved.cache > 0 {
        tel.attr(root, "bytes_saved_cache", saved.cache);
    }
    if saved.delta > 0 {
        tel.attr(root, "bytes_saved_delta", saved.delta);
    }
    tel.record_span("migration.suspend", Some(root), now, now + suspend_cost);
    root
}

/// Hand-over: records the wrap span, opens the detached migrate span, and
/// stamps the trace context onto the wire so the destination parents its
/// check-in spans to the in-transit span of *this* trace.
pub(crate) fn hand_over(world: &mut Middleware, now: SimTime, ma: &AgentId, cargo: &mut Cargo) {
    let Some(flight) = world.in_flight.get_mut(ma) else {
        return;
    };
    let root = flight.span;
    let tel = &mut world.env.telemetry;
    let wrap_span = tel.record_span("migration.wrap", Some(root), now, now);
    tel.attr(wrap_span, "bytes", flight.shipped_bytes);
    // Detached: closed when the transfer lands (or rolls back).
    let migrate_span = tel.open("migration.migrate", Some(root), now).detach();
    flight.migrate_span = migrate_span;
    if world.observability.propagate_trace_ctx && !root.is_disabled() && !migrate_span.is_disabled()
    {
        cargo.trace_ctx = Some(TraceContext {
            trace_id: u64::from(root.raw()),
            parent_span: u64::from(migrate_span.raw()),
        });
    }
}

/// Check-in: ends the migrate span and records the check-in marker, or
/// counts and marks an orphan replica (`flight` is `None`).
pub(crate) fn checkin(
    world: &mut Middleware,
    now: SimTime,
    cargo: &Cargo,
    flight: Option<&InFlight>,
) {
    match flight {
        Some(flight) => {
            world.env.telemetry.end(flight.migrate_span, now);
            Middleware::ctx_span(world, cargo.trace_ctx, "migration.checkin", now, now);
            if flight.attempts > 1 {
                // Mark retried-but-successful migrations on the root so
                // the tail sampler always keeps their traces. A clone is
                // never retried.
                world
                    .env
                    .telemetry
                    .attr(flight.span, "attempts", u64::from(flight.attempts));
            }
        }
        // Only a replica checks in without a flight record:
        // `Middleware::arrive` drops a follow-me arrival that has none.
        None => {
            world.env.metrics.incr_static("migration.orphan_arrivals");
            Middleware::ctx_span(world, cargo.trace_ctx, "migration.orphan_arrival", now, now);
        }
    }
}

/// The destination rejected the arrival: closes the root with
/// `status=rejected`. (A refused departure rolls back through fault
/// retry, which closes its spans itself.)
pub(crate) fn rejected(world: &mut Middleware, now: SimTime, flight: Option<&InFlight>) {
    let Some(flight) = flight else {
        return;
    };
    let tel = &mut world.env.telemetry;
    tel.attr(flight.span, "status", "rejected");
    tel.end(flight.span, now);
}

/// After install: the phase spans that partition the resume window
/// `[now, now + resume_cost]` under the root.
pub(crate) fn installed(
    world: &mut Middleware,
    now: SimTime,
    root: SpanId,
    cpu: CpuFactor,
    resume_cost: SimDuration,
    installed: Installed,
) {
    let tel = &mut world.env.telemetry;
    let root_end = now + resume_cost;
    match installed {
        Installed::FollowMe {
            rebind_cost,
            adapt_cost,
            bindings,
            actions,
        } => {
            // Scaled rebind and adapt windows first, then resume absorbs
            // the remainder (including any scaling-rounding residue), so
            // the children always sum to the root within
            // integer-microsecond rounding.
            let rebind_end = now + cpu.scale(rebind_cost);
            let adapt_end = rebind_end + cpu.scale(adapt_cost);
            let rebind_span = tel.record_span(
                "migration.rebind",
                Some(root),
                now,
                rebind_end.min(root_end),
            );
            tel.attr(rebind_span, "bindings", bindings);
            let adapt_span = tel.record_span(
                "migration.adapt",
                Some(root),
                rebind_end.min(root_end),
                adapt_end.min(root_end),
            );
            tel.attr(adapt_span, "actions", actions);
            tel.record_span(
                "migration.resume",
                Some(root),
                adapt_end.min(root_end),
                root_end,
            );
        }
        Installed::Replica(replica) => {
            tel.record_span("migration.resume", Some(root), now, root_end);
            tel.attr(root, "replica", u64::from(replica.0));
        }
    }
}

impl Middleware {
    /// Records a destination-side span parented to the trace context the
    /// cargo carried over the wire (when propagation stamped one), so the
    /// arrival joins the source host's migration trace causally instead
    /// of starting a disconnected one.
    pub(crate) fn ctx_span(
        world: &mut Middleware,
        ctx: Option<TraceContext>,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let Some(ctx) = ctx else { return };
        let parent = u32::try_from(ctx.parent_span)
            .ok()
            .map(SpanId::from_raw)
            .filter(|p| !p.is_disabled());
        let tel = &mut world.env.telemetry;
        let span = tel.record_span(name, parent, start, end);
        tel.attr(span, "trace_id", ctx.trace_id);
    }
}
