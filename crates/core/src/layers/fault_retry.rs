//! Fault retry: transfer windows, watchdogs, bounded backoff, rollback.
//!
//! The fault-tolerance machinery: the per-attempt transfer timeout, the
//! watchdog that distinguishes "still in transit" from "transfer lost",
//! RETRY nudges with bounded backoff, and the rollback that restores a
//! follow-me application at its source when attempts run out. Nothing is
//! armed while fault injection is off, so fault-free runs schedule
//! nothing extra.
//!
//! The retry schedule is a set of constants: three transfer attempts,
//! exponential backoff from 200 ms capped at 5 s, and 500 ms of slack on
//! top of each attempt's estimated transfer.

use mdagent_agent::{
    AclMessage, AgentId, LifecycleState, Performative, Platform, AGENT_FRAME_BYTES, MIGRATION_SETUP,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator, TraceCategory, TraceEvent};

use crate::app::AppState;
use crate::messages::{ontologies, RetryNotice};
use crate::middleware::Middleware;
use crate::observability::SLO_MIGRATION_COMPLETION;
use crate::snapshot::SnapshotManager;

use super::InFlight;

/// Transfer attempts (the initial send plus retries) before a follow-me
/// migration rolls back at its source: two retries.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before the first retry; doubles on each further retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(200);
/// Upper bound on any single backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(5);
/// Slack added to an attempt's estimated transfer before the watchdog
/// declares it timed out (and the wait before re-checking a transfer
/// still in transit).
const TIMEOUT_SLACK: SimDuration = SimDuration::from_millis(500);

/// Backoff before retry number `retry` (1-based): `base · 2^(retry−1)`,
/// capped at `BACKOFF_CAP`.
fn backoff(retry: u32) -> SimDuration {
    let exp = retry.saturating_sub(1).min(16);
    let scaled = SimDuration::from_secs_f64(BACKOFF_BASE.as_secs_f64() * (1u64 << exp) as f64);
    scaled.min(BACKOFF_CAP)
}

/// Per-attempt transfer window: agent setup plus the estimated pipelined
/// transfer of `bytes` of cargo in its agent frame, plus the slack. Zero
/// while fault injection is off: no watchdog waits on it.
pub(crate) fn transfer_timeout(
    world: &Middleware,
    src: HostId,
    dest: HostId,
    bytes: u64,
) -> SimDuration {
    if !world.env.faults.enabled() {
        return SimDuration::ZERO;
    }
    let transfer = world
        .env
        .topology
        .pipelined_transfer_time(src, dest, bytes + AGENT_FRAME_BYTES)
        .unwrap_or(SimDuration::ZERO);
    MIGRATION_SETUP + transfer + TIMEOUT_SLACK
}

/// Depart: guards a follow-me flight with a watchdog from the start
/// (faults on only). A clone flight gets its own watchdog at dispatch
/// time; the source flight is transient bookkeeping.
pub(crate) fn arm_follow_me(world: &Middleware, sim: &mut Simulator<Middleware>, ma: &AgentId) {
    let Some(flight) = world.in_flight.get(ma) else {
        return;
    };
    if world.env.faults.enabled() && !flight.cloned {
        Middleware::arm_watchdog(sim, ma.clone(), 1, flight.suspend + flight.timeout);
    }
}

impl Middleware {
    /// The clone slot was created: copies the source MA's flight record
    /// under the clone id (departing now with nothing streamed, from the
    /// app's current host, with its transfer window recomputed) and
    /// guards the clone with a watchdog armed from that record (faults on
    /// only).
    /// The migration root and open migrate spans travel with the clone:
    /// the source's record is cleared by its cargo timer (which never ends
    /// spans), and the clone's arrival ends both at the destination. The
    /// unconfined front the mobile agent calls, keeping the watchdog
    /// machinery in this module.
    pub(crate) fn note_clone_dispatched(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        source_ma: &AgentId,
        clone_id: AgentId,
    ) {
        let Some(source) = world.in_flight.get(source_ma) else {
            return;
        };
        let src_host = world
            .apps
            .get(source.app.0 as usize)
            .map_or(source.dest_host, |a| a.host);
        let timeout = transfer_timeout(world, src_host, source.dest_host, source.shipped_bytes);
        let now = sim.now();
        let flight = InFlight {
            departed_at: now,
            started_at: now,
            remote_bytes: 0,
            src_host,
            timeout,
            ..source.clone()
        };
        world.in_flight.insert(clone_id.clone(), flight);
        if world.env.faults.enabled() {
            Middleware::arm_watchdog(sim, clone_id, 1, timeout);
        }
    }

    /// Abandons a flight whose departure the platform refused before any
    /// bytes moved: closes its spans and, for follow-me, resumes the
    /// application in place at the source. The unconfined front the
    /// mobile agent calls.
    pub(crate) fn abort_departure(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
    ) {
        Middleware::rollback_migration(world, sim, ma);
    }

    /// Unwinds a departure whose deferred move or clone failed at queue
    /// drain time. The platform reported `Ok` when the operation was
    /// queued, so this hook is the middleware's only notification: the
    /// clone's flight would otherwise linger with an open root span
    /// until a watchdog times out — or forever, when no watchdog is
    /// armed for it.
    pub(crate) fn deferred_departure_failed(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        failure: mdagent_agent::DeferredFailure,
    ) {
        match failure.clone_id {
            None => {
                // A link-down refusal while faults are on is the armed
                // watchdog's business: its retry nudges the agent again
                // once the outage clears or attempts run out. Every other
                // failure has no guardian and must roll back here.
                if world.env.faults.enabled()
                    && matches!(failure.error, mdagent_agent::AgentError::LinkDown(_))
                {
                    return;
                }
                Middleware::abort_departure(world, sim, ma);
            }
            Some(clone_id) => {
                // The clone's flight record owns the telemetry spans; the
                // source entry is transient bookkeeping the cargo timer
                // clears without closing them. Aborting now (instead of
                // waiting out the watchdog, when one is armed at all) is
                // deterministic and covers the fault-free leak.
                world.env.metrics.incr_static("ma.clone_failed");
                Middleware::abort_departure(world, sim, &clone_id);
            }
        }
    }

    // ---- fault-tolerant migration: watchdog, retry, rollback ----------------

    /// Arms a watchdog that re-examines a flight after `delay`. Only
    /// called when fault injection is on, so fault-free runs schedule
    /// nothing extra.
    pub(crate) fn arm_watchdog(
        sim: &mut Simulator<Middleware>,
        ma: AgentId,
        attempt: u32,
        delay: SimDuration,
    ) {
        sim.schedule_in(delay, move |w, sim| {
            Middleware::check_migration(w, sim, &ma, attempt);
        });
    }

    /// The watchdog body: decides between "still in transit — wait",
    /// "transfer lost — retry" and "out of attempts — roll back". A
    /// watchdog whose attempt number no longer matches the flight's is
    /// stale (a newer attempt owns the flight) and does nothing.
    fn check_migration(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        attempt: u32,
    ) {
        let Some(flight) = world.in_flight.get(ma) else {
            return; // arrived or already rolled back
        };
        if flight.attempts != attempt {
            return;
        }
        let cloned = flight.cloned;
        let timeout = flight.timeout;
        let app_id = flight.app;
        match world.platform.agent_state(ma) {
            Some(LifecycleState::InTransit) => {
                // Transfer still running — the estimate was short; wait
                // one more margin and look again.
                Middleware::arm_watchdog(sim, ma.clone(), attempt, TIMEOUT_SLACK);
            }
            Some(LifecycleState::Active | LifecycleState::Suspended)
                if !cloned && attempt < MAX_ATTEMPTS =>
            {
                // The agent bounced back to the source: the transfer was
                // dropped. Nudge it to re-dispatch after a backoff.
                let next = attempt + 1;
                if let Some(f) = world.in_flight.get_mut(ma) {
                    f.attempts = next;
                }
                world.env.metrics.incr_static("migration.retries");
                world.env.trace.record_event(
                    sim.now(),
                    TraceCategory::Agent,
                    TraceEvent::MigrationRetry {
                        app: app_id.to_string(),
                        attempt: next,
                    },
                );
                let wait = backoff(next - 1);
                let kernel_name = world.platform.name().to_owned();
                let target = ma.clone();
                sim.schedule_in(wait, move |w, sim| {
                    let msg = AclMessage::new(
                        Performative::Inform,
                        AgentId::new("middleware", kernel_name),
                        target.clone(),
                    )
                    .with_ontology(ontologies::RETRY)
                    .with_payload(&RetryNotice { attempt: next });
                    Platform::send(w, sim, msg);
                });
                Middleware::arm_watchdog(sim, ma.clone(), next, wait + timeout);
            }
            _ => Middleware::rollback_migration(world, sim, ma),
        }
    }

    /// Gives up on a flight: closes its telemetry spans and, for
    /// follow-me, restores the retained snapshot and resumes the
    /// application in place at the source. Clone flights are simply
    /// aborted — the original application never stopped running.
    fn rollback_migration(world: &mut Middleware, sim: &mut Simulator<Middleware>, ma: &AgentId) {
        let Some(flight) = world.in_flight.remove(ma) else {
            return;
        };
        let now = sim.now();
        let app_id = flight.app;
        {
            let tel = &mut world.env.telemetry;
            tel.end(flight.migrate_span, now);
            tel.attr(flight.span, "status", "aborted");
            tel.attr(flight.span, "attempts", u64::from(flight.attempts));
        }
        world.env.trace.record_event(
            now,
            TraceCategory::Agent,
            TraceEvent::MigrationAborted {
                app: app_id.to_string(),
                dest: flight.dest_host.to_string(),
                attempts: flight.attempts,
            },
        );
        Middleware::slo_record(world, now, SLO_MIGRATION_COMPLETION, false);
        if flight.cloned {
            world.env.telemetry.end(flight.span, now);
            world.env.metrics.incr_static("migration.clone_aborts");
            return;
        }
        // Unwrap the retained snapshot and resume where we started.
        {
            let Middleware {
                snapshots, apps, ..
            } = &mut *world;
            if let Some(app) = apps.get_mut(app_id.0 as usize) {
                if let Some(snap) = snapshots.latest(&app.name) {
                    let _ = SnapshotManager::restore(snap, app);
                }
                app.host = flight.src_host;
            }
        }
        let cpu = world
            .env
            .topology
            .host(flight.src_host)
            .map(|h| h.cpu())
            .unwrap_or(CpuFactor::REFERENCE);
        let resume_cost = cpu.scale(world.cost_model.resume_cost(flight.shipped_bytes, 0));
        world.env.metrics.incr_static("migration.rollbacks");
        world.env.metrics.observe_static(
            "migration.rollback_latency",
            now.saturating_since(flight.started_at) + resume_cost,
        );
        {
            let tel = &mut world.env.telemetry;
            tel.record_span(
                "migration.rollback",
                Some(flight.span),
                now,
                now + resume_cost,
            );
        }
        // The MA still holds the dead cargo; expire it through its own
        // timer path (a no-op if the agent itself was lost).
        Platform::set_timer(
            world,
            sim,
            ma,
            SimDuration::ZERO,
            crate::agents::TAG_CLEAR_CARGO,
        );
        let src = flight.src_host;
        let root = flight.span;
        sim.schedule_in(resume_cost, move |w, sim| {
            let now = sim.now();
            if let Ok(app) = w.app_mut(app_id) {
                app.state = AppState::Running;
                app.host = src;
            }
            w.env.telemetry.end(root, now);
            w.env.trace.record_event(
                now,
                TraceCategory::Application,
                TraceEvent::Resumed {
                    app: app_id.to_string(),
                    dest: src.to_string(),
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_is_pinned() {
        assert_eq!(MAX_ATTEMPTS, 3);
        for (retry, millis) in [(1, 200), (2, 400), (3, 800), (4, 1_600), (5, 3_200)] {
            assert_eq!(
                backoff(retry),
                SimDuration::from_millis(millis),
                "retry {retry}"
            );
        }
        for retry in [6, 7, 17, 18, u32::MAX] {
            assert_eq!(backoff(retry), SimDuration::from_secs(5), "retry {retry}");
        }
        assert_eq!(TIMEOUT_SLACK, SimDuration::from_millis(500));
    }
}
