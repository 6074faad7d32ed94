//! [`TelemetryLayer`]: migration spans + wire trace-context propagation.
//!
//! Owns every telemetry-span call of the migration lifecycle: the
//! detached `migration` root with its per-phase children
//! (suspend/wrap/migrate/rebind/adapt/resume), the destination-side
//! check-in marker spans parented across the wire via
//! [`TraceContext`], and the status attributes the tail sampler keys on
//! (`attempts`, `status=rejected`). Without this layer in the stack a
//! migration records no spans at all.

use mdagent_agent::AgentId;
use mdagent_simnet::{SimTime, Simulator, SpanId};

use crate::messages::{Cargo, TraceContext};
use crate::middleware::Middleware;
use crate::mobility::MobilityMode;

use super::{AbortReason, Arrival, FlightSetup, InFlight, MigrationLayer, ResumeOutcome};

/// The span/trace-propagation concern as a drop-in layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryLayer;

impl MigrationLayer for TelemetryLayer {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn before_depart(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        setup: &mut FlightSetup,
    ) {
        let now = sim.now();
        // Root span for the whole migration; one child per pipeline phase.
        // Detached: it rides the in-flight record and closes at arrival
        // or rollback.
        let root = world.env.telemetry.open("migration", None, now).detach();
        // Raw ids as integers: keeps this hot path free of formatting
        // allocations (the exporters render them).
        let tel = &mut world.env.telemetry;
        tel.attr(root, "app", u64::from(setup.app.0));
        tel.attr(root, "mode", setup.mode.tag());
        tel.attr(root, "src_host", u64::from(setup.src_host.0));
        tel.attr(root, "dest_host", u64::from(setup.dest_host.0));
        tel.attr(root, "bytes", setup.wrapped_bytes);
        if setup.bytes_saved_cache > 0 {
            tel.attr(root, "bytes_saved_cache", setup.bytes_saved_cache);
        }
        if setup.bytes_saved_delta > 0 {
            tel.attr(root, "bytes_saved_delta", setup.bytes_saved_delta);
        }
        let suspend_span = tel.record_span(
            "migration.suspend",
            Some(root),
            now,
            now + setup.suspend_cost,
        );
        let _ = suspend_span;
        setup.span = root;
    }

    fn before_transfer(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &mut Cargo,
    ) {
        let now = sim.now();
        let Some(flight) = world.in_flight.get(ma) else {
            return;
        };
        let root = flight.span;
        let wrapped_bytes = flight.shipped_bytes;
        let tel = &mut world.env.telemetry;
        let wrap_span = tel.record_span("migration.wrap", Some(root), now, now);
        tel.attr(wrap_span, "bytes", wrapped_bytes);
        // Detached: closed when the transfer lands (or rolls back).
        let migrate_span = tel.open("migration.migrate", Some(root), now).detach();
        if let Some(flight) = world.in_flight.get_mut(ma) {
            flight.migrate_span = migrate_span;
        }
        // Stamp the trace context onto the wire so the destination parents
        // its check-in spans to the in-transit span of *this* trace.
        if world.observability.propagate_trace_ctx
            && !root.is_disabled()
            && !migrate_span.is_disabled()
        {
            cargo.trace_ctx = Some(TraceContext {
                trace_id: u64::from(root.raw()),
                parent_span: u64::from(migrate_span.raw()),
            });
        }
    }

    fn before_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &mut Arrival,
    ) {
        let _ = arrival;
        let now = sim.now();
        match flight {
            Some(flight) => {
                world.env.telemetry.end(flight.migrate_span, now);
                Middleware::ctx_span(world, cargo.trace_ctx, "migration.checkin", now, now);
                if flight.attempts > 1 {
                    // Mark retried-but-successful migrations on the root so
                    // the tail sampler always keeps their traces. A clone
                    // is never retried.
                    world
                        .env
                        .telemetry
                        .attr(flight.span, "attempts", u64::from(flight.attempts));
                }
            }
            // Only a replica checks in without a flight record:
            // `Middleware::arrive` drops a follow-me arrival that has none
            // before this hook runs.
            None => {
                world.env.metrics.incr_static("migration.orphan_arrivals");
                Middleware::ctx_span(world, cargo.trace_ctx, "migration.orphan_arrival", now, now);
            }
        }
    }

    fn after_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &Arrival,
    ) {
        let now = sim.now();
        let root = flight.map(|f| f.span).unwrap_or(SpanId::DISABLED);
        match cargo.plan.mode {
            MobilityMode::FollowMe => {
                // Child spans partition [now, now + resume_cost]: scaled
                // rebind and adapt windows first, then resume absorbs the
                // remainder (including any scaling-rounding residue), so
                // the children always sum to the root within
                // integer-microsecond rounding.
                let scaled_rebind = arrival.cpu.scale(arrival.rebind_cost);
                let scaled_adapt = arrival.cpu.scale(arrival.adapt_cost);
                let rebind_end = now + scaled_rebind;
                let adapt_end = rebind_end + scaled_adapt;
                let root_end = now + arrival.resume_cost;
                let tel = &mut world.env.telemetry;
                let rebind_span = tel.record_span(
                    "migration.rebind",
                    Some(root),
                    now,
                    rebind_end.min(root_end),
                );
                tel.attr(rebind_span, "bindings", arrival.rebind_bindings);
                let adapt_span = tel.record_span(
                    "migration.adapt",
                    Some(root),
                    rebind_end.min(root_end),
                    adapt_end.min(root_end),
                );
                tel.attr(adapt_span, "actions", arrival.adapt_actions);
                tel.record_span(
                    "migration.resume",
                    Some(root),
                    adapt_end.min(root_end),
                    root_end,
                );
            }
            MobilityMode::CloneDispatch => {
                let tel = &mut world.env.telemetry;
                tel.record_span(
                    "migration.resume",
                    Some(root),
                    now,
                    now + arrival.resume_cost,
                );
                if let Some(replica) = arrival.replica {
                    tel.attr(root, "replica", u64::from(replica.0));
                }
            }
        }
    }

    fn before_resume(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        outcome: &ResumeOutcome,
    ) {
        world.env.telemetry.end(outcome.root, sim.now());
    }

    fn on_abort(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        flight: Option<&InFlight>,
        reason: AbortReason,
    ) {
        let _ = ma;
        // A refused departure rolls back through the fault machinery,
        // which closes the spans itself; only a destination-side
        // rejection leaves the root dangling for us to close.
        if reason != AbortReason::ArrivalRejected {
            return;
        }
        let Some(flight) = flight else {
            return;
        };
        let now = sim.now();
        let tel = &mut world.env.telemetry;
        tel.attr(flight.span, "status", "rejected");
        tel.end(flight.span, now);
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
