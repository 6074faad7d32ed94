//! The migration lifecycle's five cross-cutting concerns, one module
//! each.
//!
//! Every migration runs one fixed sequence (paper Fig. 4): suspend,
//! snapshot, wrap, check-out, transfer, check-in, restore, rebind, adapt,
//! resume. The driver in `middleware.rs` runs it and calls each concern's
//! functions directly, at fixed points and in a fixed order (DESIGN.md
//! §15):
//!
//! | Module | Concern | State |
//! |--------|---------|-------|
//! | [`telemetry`] | migration root and phase spans, wire trace-context propagation | the world's telemetry collector |
//! | [`fault_retry`] | transfer windows, watchdogs, retry nudges, rollback | none |
//! | [`exactly_once`] | sequence-guarded duplicate and orphan check-ins | `Middleware::deployed` |
//! | [`slo`] | burn-rate SLO feeds | the world's SLO monitor |
//! | [`datapath`] | content-cache elision and snapshot deltas | `Middleware::data_path`, present when the builder turns it on |
//!
//! A concern function may mutate the world and schedule future events
//! (the watchdogs do), but must not synchronously re-enter the lifecycle
//! (mdlint R9). Concern internals are named only under this directory
//! (mdlint R6).

pub(crate) mod datapath;
pub(crate) mod exactly_once;
pub(crate) mod fault_retry;
pub(crate) mod slo;
pub(crate) mod telemetry;

use mdagent_simnet::{HostId, SimDuration, SimTime, SpanId};

use crate::app::AppId;
use crate::messages::Cargo;
use crate::mobility::MobilityMode;

/// Bookkeeping for one migration (or clone) in flight between suspension
/// and resume, keyed in the world by its mobile agent.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// The migrated (or cloned) application.
    pub(crate) app: AppId,
    /// Simulated suspension cost already paid at the source.
    pub(crate) suspend: SimDuration,
    /// Instant the cargo left the source (refined at hand-over).
    pub(crate) departed_at: SimTime,
    /// Bytes shipped inside the agent.
    pub(crate) shipped_bytes: u64,
    /// Bytes left behind for remote streaming.
    pub(crate) remote_bytes: u64,
    /// Root telemetry span for the whole migration; ends at resume.
    pub(crate) span: SpanId,
    /// Open `migration.migrate` child span; ends on arrival.
    pub(crate) migrate_span: SpanId,
    /// Transfer attempts so far (1-based; the initial send is attempt 1).
    pub(crate) attempts: u32,
    /// Clone-dispatch flight: never retried, aborted on loss.
    pub(crate) cloned: bool,
    /// Source host — rollback target.
    pub(crate) src_host: HostId,
    /// Destination host.
    pub(crate) dest_host: HostId,
    /// Instant the migration was requested (watchdog latency base).
    pub(crate) started_at: SimTime,
    /// Per-attempt transfer window the watchdog waits before declaring a
    /// timeout. Zero when faults are disabled (no watchdog armed).
    pub(crate) timeout: SimDuration,
}

impl InFlight {
    /// The record of `cargo` departing `src_host` at `now`: `span` is the
    /// migration root telemetry opened, `timeout` the per-attempt window
    /// fault retry computed.
    pub(crate) fn new(
        cargo: &Cargo,
        src_host: HostId,
        wrapped_bytes: u64,
        suspend: SimDuration,
        span: SpanId,
        timeout: SimDuration,
        now: SimTime,
    ) -> InFlight {
        InFlight {
            app: cargo.plan.app(),
            suspend,
            departed_at: now, // refined when cargo is handed over
            shipped_bytes: wrapped_bytes,
            remote_bytes: cargo.remote_bytes,
            span,
            migrate_span: SpanId::DISABLED,
            attempts: 1,
            cloned: cargo.plan.mode != MobilityMode::FollowMe,
            src_host,
            dest_host: cargo.plan.dest_host(),
            started_at: now,
            timeout,
        }
    }
}
