//! Opt-in observability pipeline configuration.
//!
//! Everything here defaults to *off* so a default-built [`Middleware`]
//! behaves — and serializes — exactly as before: the passthrough span
//! collector keeps every span, no trace context rides on the wire, and
//! no SLO monitor runs. Each piece is enabled independently through
//! [`MiddlewareBuilder::observability`]:
//!
//! * [`ObservabilityOptions::sampler`] — swaps the collector for a
//!   bounded tail-based sampler ([`mdagent_simnet::Telemetry::sampled`]).
//! * [`ObservabilityOptions::propagate_trace_ctx`] — stamps a
//!   [`TraceContext`](crate::messages::TraceContext) into migration
//!   cargo so destination-side spans join the source's trace.
//! * [`ObservabilityOptions::slo`] — runs rolling-window objectives with
//!   multi-window burn-rate alert edges emitted as structured
//!   [`TraceEvent`](mdagent_simnet::TraceEvent)s.
//!
//! [`Middleware`]: crate::Middleware
//! [`MiddlewareBuilder::observability`]: crate::MiddlewareBuilder::observability

use mdagent_simnet::{SamplerOptions, SimDuration, SloMonitor, SloSpec};

/// Opt-in observability pipeline options (all off by default).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObservabilityOptions {
    /// Tail-based span sampling; `None` keeps the passthrough collector.
    pub sampler: Option<SamplerOptions>,
    /// Stamp `(trace_id, parent_span_id)` into migration cargo so
    /// follow-me/clone migrations yield one causally-linked trace across
    /// source host, gateway and destination.
    pub propagate_trace_ctx: bool,
    /// SLO monitoring with burn-rate alerting; `None` disables it.
    pub slo: Option<SloOptions>,
}

/// Targets and windows for the middleware's three built-in objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloOptions {
    /// A migration counts as latency-good when its request-to-resume time
    /// is at most this.
    pub migration_latency_target: SimDuration,
    /// Good fraction objective for migration latency.
    pub migration_latency_objective: f64,
    /// Good fraction objective for migration completion (vs. rollback).
    pub completion_objective: f64,
    /// A registry lookup counts as good when its modeled latency is at
    /// most this.
    pub lookup_latency_target: SimDuration,
    /// Good fraction objective for registry lookup latency.
    pub lookup_latency_objective: f64,
    /// Fast alerting window (sim time).
    pub short_window: SimDuration,
    /// Slow alerting window (sim time).
    pub long_window: SimDuration,
    /// Burn-rate multiple both windows must reach to fire.
    pub burn_threshold: f64,
}

impl Default for SloOptions {
    fn default() -> Self {
        SloOptions {
            // Fig. 8's largest follow-me case (8 MB) completes in ~15 s
            // of simulated time; 20 s is "seamless enough" headroom.
            migration_latency_target: SimDuration::from_millis(20_000),
            migration_latency_objective: 0.9,
            completion_objective: 0.95,
            // Registry lookup is modeled at 25 ms; an inter-space hop can
            // roughly double it.
            lookup_latency_target: SimDuration::from_millis(60),
            lookup_latency_objective: 0.99,
            short_window: SimDuration::from_millis(30_000),
            long_window: SimDuration::from_millis(300_000),
            burn_threshold: 1.0,
        }
    }
}

/// Built-in objective name: migration request-to-resume latency.
pub const SLO_MIGRATION_LATENCY: &str = "migration-latency";
/// Built-in objective name: migration completion (vs. rollback/abort).
pub const SLO_MIGRATION_COMPLETION: &str = "migration-completion";
/// Built-in objective name: registry lookup latency.
pub const SLO_REGISTRY_LOOKUP: &str = "registry-lookup";

impl SloOptions {
    /// Builds the monitor with the three built-in objectives.
    pub fn build_monitor(&self) -> SloMonitor {
        SloMonitor::new()
            .with_slo(SloSpec {
                name: SLO_MIGRATION_LATENCY,
                objective: self.migration_latency_objective,
                short_window: self.short_window,
                long_window: self.long_window,
                burn_threshold: self.burn_threshold,
            })
            .with_slo(SloSpec {
                name: SLO_MIGRATION_COMPLETION,
                objective: self.completion_objective,
                short_window: self.short_window,
                long_window: self.long_window,
                burn_threshold: self.burn_threshold,
            })
            .with_slo(SloSpec {
                name: SLO_REGISTRY_LOOKUP,
                objective: self.lookup_latency_objective,
                short_window: self.short_window,
                long_window: self.long_window,
                burn_threshold: self.burn_threshold,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fully_off() {
        let opts = ObservabilityOptions::default();
        assert!(opts.sampler.is_none() && opts.slo.is_none());
        assert!(!opts.propagate_trace_ctx);
    }

    #[test]
    fn monitor_has_the_three_builtin_objectives() {
        let monitor = SloOptions::default().build_monitor();
        for name in [
            SLO_MIGRATION_LATENCY,
            SLO_MIGRATION_COMPLETION,
            SLO_REGISTRY_LOOKUP,
        ] {
            assert!(monitor.get(name).is_some(), "{name} registered");
        }
        assert_eq!(monitor.slos().len(), 3);
    }
}
