//! SLO: burn-rate SLO feeds.
//!
//! Every completed migration feeds the completion and latency SLOs
//! ([`migration_completed`]), rollbacks feed a bad completion (fault
//! retry calls [`Middleware::slo_record`]), and registry lookups feed the
//! lookup-latency SLO through the unconfined
//! [`Middleware::slo_observe_lookup`] front the autonomous agent calls.
//! All of it is a no-op unless SLO monitoring was enabled in
//! [`ObservabilityOptions`](crate::observability::ObservabilityOptions).

use mdagent_simnet::{SimDuration, SimTime, SloEdge, TraceCategory, TraceEvent};

use crate::middleware::Middleware;
use crate::observability::{SLO_MIGRATION_COMPLETION, SLO_MIGRATION_LATENCY, SLO_REGISTRY_LOOKUP};

/// Resume: feeds a completed migration into the completion and latency
/// SLOs.
pub(crate) fn migration_completed(world: &mut Middleware, now: SimTime, latency: SimDuration) {
    let Some(opts) = world.observability.slo else {
        return;
    };
    Middleware::slo_record(world, now, SLO_MIGRATION_COMPLETION, true);
    Middleware::slo_record(
        world,
        now,
        SLO_MIGRATION_LATENCY,
        latency <= opts.migration_latency_target,
    );
}

impl Middleware {
    /// Feeds one good/bad event into the named SLO and emits a structured
    /// trace event (plus an `slo.alerts_*` counter) on alerting-state
    /// edges. A no-op unless SLO monitoring is enabled.
    pub(crate) fn slo_record(world: &mut Middleware, now: SimTime, name: &'static str, good: bool) {
        let Some(monitor) = world.slo.as_mut() else {
            return;
        };
        let Some(signal) = monitor.record(name, now, good) else {
            return;
        };
        let (counter, event) = match signal.edge {
            SloEdge::Fired => (
                "slo.alerts_fired",
                TraceEvent::SloBurnAlert {
                    slo: signal.name.to_owned(),
                    short_burn_milli: signal.short_burn_milli,
                    long_burn_milli: signal.long_burn_milli,
                },
            ),
            SloEdge::Recovered => (
                "slo.alerts_recovered",
                TraceEvent::SloRecovered {
                    slo: signal.name.to_owned(),
                },
            ),
        };
        world.env.metrics.incr_static(counter);
        world
            .env
            .trace
            .record_event(now, TraceCategory::Agent, event);
    }

    /// Feeds a modeled registry lookup latency into the lookup SLO. The
    /// unconfined front the autonomous agent calls.
    pub(crate) fn slo_observe_lookup(world: &mut Middleware, now: SimTime, latency: SimDuration) {
        let Some(opts) = world.observability.slo else {
            return;
        };
        world
            .env
            .metrics
            .observe_static("registry.lookup_latency", latency);
        Middleware::slo_record(
            world,
            now,
            SLO_REGISTRY_LOOKUP,
            latency <= opts.lookup_latency_target,
        );
    }
}
