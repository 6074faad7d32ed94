//! Rolling-window SLO monitoring with multi-window burn-rate alerting,
//! on the simulated clock.
//!
//! An [`Slo`] tracks a stream of good/bad events (a latency objective is
//! fed as `good = sample ≤ target`) over two rolling windows. The *burn
//! rate* of a window is the fraction of bad events in it divided by the
//! error budget (`1 - objective`): burn 1.0 means the budget is being
//! consumed exactly as fast as the objective allows, higher means an
//! incident. An alert fires only when **both** the short and the long
//! window burn at or above [`SloSpec::burn_threshold`] — the classic
//! multi-window rule: the long window keeps one transient blip from
//! paging, the short window lets the alert clear quickly once the burn
//! stops. [`Slo::record`] reports the *edges* (fired / recovered) so the
//! caller can emit exactly one structured trace event per transition.
//!
//! Everything is integer-or-deterministic-float arithmetic on
//! [`SimTime`]; reruns of the same schedule produce the same alerts.
//! The window internals (`prune_window`, `burn_within`) are confined to
//! this module by `mdlint` rule R4.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Static definition of one service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Objective name (e.g. `migration-latency`).
    pub name: &'static str,
    /// Target good fraction in `[0, 1)`, e.g. `0.99` for "99% of
    /// migrations complete within target".
    pub objective: f64,
    /// Fast window: lets alerts clear quickly.
    pub short_window: SimDuration,
    /// Slow window: keeps single blips from alerting.
    pub long_window: SimDuration,
    /// Both windows must burn at or above this multiple of the error
    /// budget for the alert to fire (1.0 = budget-neutral pace).
    pub burn_threshold: f64,
}

/// An alerting-state transition reported by [`Slo::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEdge {
    /// Both windows crossed the burn threshold.
    Fired,
    /// A firing alert dropped back under the threshold.
    Recovered,
}

/// A state transition with the burn rates that caused it, in deterministic
/// fixed-point (thousandths) for stable trace rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSignal {
    /// Objective that transitioned.
    pub name: &'static str,
    /// Which way it transitioned.
    pub edge: SloEdge,
    /// Short-window burn rate × 1000 at the transition.
    pub short_burn_milli: u64,
    /// Long-window burn rate × 1000 at the transition.
    pub long_burn_milli: u64,
}

/// One rolling-window objective.
#[derive(Debug, Clone)]
pub struct Slo {
    spec: SloSpec,
    /// Events inside the long window, oldest first.
    window: VecDeque<(SimTime, bool)>,
    good_total: u64,
    bad_total: u64,
    alerting: bool,
}

impl Slo {
    /// Creates an empty objective.
    pub fn new(spec: SloSpec) -> Self {
        Slo {
            spec,
            window: VecDeque::new(),
            good_total: 0,
            bad_total: 0,
            alerting: false,
        }
    }

    /// The static definition.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Whether the alert is currently firing.
    pub fn is_alerting(&self) -> bool {
        self.alerting
    }

    /// Good events observed over the whole run.
    pub fn good_total(&self) -> u64 {
        self.good_total
    }

    /// Bad events observed over the whole run.
    pub fn bad_total(&self) -> u64 {
        self.bad_total
    }

    /// Overall good fraction (1.0 before any event).
    pub fn compliance(&self) -> f64 {
        let total = self.good_total + self.bad_total;
        if total == 0 {
            return 1.0;
        }
        self.good_total as f64 / total as f64
    }

    /// Records one good/bad event at `now` and returns the alerting-state
    /// edge it caused, if any.
    pub fn record(&mut self, now: SimTime, good: bool) -> Option<SloSignal> {
        self.prune_window(now);
        self.window.push_back((now, good));
        if good {
            self.good_total += 1;
        } else {
            self.bad_total += 1;
        }
        let short = self.burn_within(now, self.spec.short_window);
        let long = self.burn_within(now, self.spec.long_window);
        let firing = short >= self.spec.burn_threshold && long >= self.spec.burn_threshold;
        let edge = match (self.alerting, firing) {
            (false, true) => Some(SloEdge::Fired),
            (true, false) => Some(SloEdge::Recovered),
            _ => None,
        }?;
        self.alerting = firing;
        Some(SloSignal {
            name: self.spec.name,
            edge,
            short_burn_milli: to_milli(short),
            long_burn_milli: to_milli(long),
        })
    }

    /// Current short-window burn rate.
    #[cfg(test)]
    pub fn short_burn(&self, now: SimTime) -> f64 {
        self.burn_within(now, self.spec.short_window)
    }

    /// Current long-window burn rate.
    #[cfg(test)]
    pub fn long_burn(&self, now: SimTime) -> f64 {
        self.burn_within(now, self.spec.long_window)
    }

    /// Drops events older than the long window.
    fn prune_window(&mut self, now: SimTime) {
        let cutoff = now
            .as_micros()
            .saturating_sub(self.spec.long_window.as_micros());
        while let Some(&(at, _)) = self.window.front() {
            if at.as_micros() >= cutoff {
                break;
            }
            self.window.pop_front();
        }
    }

    /// Burn rate over the trailing `window` ending at `now`: bad fraction
    /// divided by the error budget. 0.0 with no events; an exhausted
    /// budget (objective ≥ 1) burns infinitely on any bad event.
    fn burn_within(&self, now: SimTime, window: SimDuration) -> f64 {
        let cutoff = now.as_micros().saturating_sub(window.as_micros());
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(at, ok) in self.window.iter().rev() {
            if at.as_micros() < cutoff {
                break;
            }
            if ok {
                good += 1;
            } else {
                bad += 1;
            }
        }
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let bad_fraction = bad as f64 / total as f64;
        let budget = 1.0 - self.spec.objective;
        if budget <= 0.0 {
            return if bad > 0 { f64::INFINITY } else { 0.0 };
        }
        bad_fraction / budget
    }
}

/// A named set of objectives fed from middleware event sites.
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    slos: Vec<Slo>,
}

impl SloMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        SloMonitor::default()
    }

    /// Adds an objective (builder-style).
    pub fn with_slo(mut self, spec: SloSpec) -> Self {
        self.slos.push(Slo::new(spec));
        self
    }

    /// Records one event against the named objective; unknown names are
    /// ignored (a feed site must not crash a run without that SLO).
    pub fn record(&mut self, name: &str, now: SimTime, good: bool) -> Option<SloSignal> {
        self.slos
            .iter_mut()
            .find(|s| s.spec.name == name)
            .and_then(|s| s.record(now, good))
    }

    /// All objectives, in registration order.
    pub fn slos(&self) -> &[Slo] {
        &self.slos
    }

    /// Looks up one objective by name.
    pub fn get(&self, name: &str) -> Option<&Slo> {
        self.slos.iter().find(|s| s.spec.name == name)
    }
}

fn to_milli(burn: f64) -> u64 {
    if !burn.is_finite() {
        return u64::MAX;
    }
    (burn * 1000.0).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            name: "migration-completion",
            objective: 0.9,
            short_window: SimDuration::from_millis(1_000),
            long_window: SimDuration::from_millis(10_000),
            burn_threshold: 1.0,
        }
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let mut slo = Slo::new(spec());
        for i in 0..100u64 {
            assert_eq!(slo.record(SimTime::from_millis(i * 50), true), None);
        }
        assert!(!slo.is_alerting());
        assert_eq!(slo.compliance(), 1.0);
        assert_eq!(slo.bad_total(), 0);
    }

    #[test]
    fn sustained_burn_fires_once_then_recovers_once() {
        let mut slo = Slo::new(spec());
        let mut fired = 0;
        let mut recovered = 0;
        // 20 straight failures: burn = 1.0/0.1 = 10x in both windows.
        for i in 0..20u64 {
            if let Some(signal) = slo.record(SimTime::from_millis(i * 100), false) {
                match signal.edge {
                    SloEdge::Fired => {
                        fired += 1;
                        assert!(signal.short_burn_milli >= 1_000);
                        assert!(signal.long_burn_milli >= 1_000);
                    }
                    SloEdge::Recovered => recovered += 1,
                }
            }
        }
        assert_eq!((fired, recovered), (1, 0), "edge fires exactly once");
        assert!(slo.is_alerting());
        // A long stretch of successes empties the short window of bad
        // events, dropping its burn under threshold → one recovery edge.
        for i in 20..120u64 {
            if let Some(signal) = slo.record(SimTime::from_millis(i * 100), true) {
                assert_eq!(signal.edge, SloEdge::Recovered);
                recovered += 1;
            }
        }
        assert_eq!(recovered, 1);
        assert!(!slo.is_alerting());
    }

    #[test]
    fn single_blip_does_not_page() {
        // A lone failure inside an otherwise-good long window keeps the
        // long burn under threshold even though the short window spikes.
        let mut slo = Slo::new(SloSpec {
            burn_threshold: 2.0,
            ..spec()
        });
        for i in 0..50u64 {
            assert_eq!(slo.record(SimTime::from_millis(i * 100), true), None);
        }
        assert_eq!(slo.record(SimTime::from_millis(5_000), false), None);
        assert!(!slo.is_alerting());
    }

    #[test]
    fn window_pruning_forgets_old_events() {
        let mut slo = Slo::new(spec());
        let _ = slo.record(SimTime::ZERO, false);
        // 20 simulated seconds later the old failure is outside both
        // windows; burn is computed over the fresh events only.
        let _ = slo.record(SimTime::from_millis(20_000), true);
        assert_eq!(slo.short_burn(SimTime::from_millis(20_000)), 0.0);
        assert_eq!(slo.long_burn(SimTime::from_millis(20_000)), 0.0);
        // Lifetime totals still remember everything.
        assert_eq!((slo.good_total(), slo.bad_total()), (1, 1));
    }

    #[test]
    fn monitor_routes_by_name_and_ignores_unknown() {
        let mut monitor = SloMonitor::new().with_slo(spec());
        assert!(monitor
            .record("no-such-slo", SimTime::ZERO, false)
            .is_none());
        for i in 0..5u64 {
            let _ = monitor.record("migration-completion", SimTime::from_millis(i), false);
        }
        let slo = monitor.get("migration-completion").unwrap();
        assert!(slo.is_alerting());
        assert_eq!(slo.bad_total(), 5);
        assert_eq!(monitor.slos().len(), 1);
    }

    #[test]
    fn exhausted_budget_burns_infinitely() {
        let mut slo = Slo::new(SloSpec {
            objective: 1.0,
            ..spec()
        });
        let signal = slo.record(SimTime::ZERO, false).unwrap();
        assert_eq!(signal.edge, SloEdge::Fired);
        assert_eq!(signal.short_burn_milli, u64::MAX);
    }
}
