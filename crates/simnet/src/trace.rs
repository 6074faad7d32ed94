//! Scenario event tracing.
//!
//! A [`Trace`] is an append-only log of notable simulation events. Each
//! entry carries a structured [`TraceEvent`] whose `Display` renders the
//! stable, assertable strings the integration tests match with
//! [`Trace::check_sequence`]; exporters read the typed fields instead of
//! re-parsing text.

use std::fmt;

use crate::time::SimTime;

/// Broad category of a trace entry, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Sensor layer activity (readings, detections).
    Sensor,
    /// Context layer activity (fusion, classification, events).
    Context,
    /// Agent layer activity (messages, reasoning, migration).
    Agent,
    /// Application layer activity (suspend, resume, adaptation).
    Application,
    /// Network transfers.
    Network,
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceCategory::Sensor => "sensor",
            TraceCategory::Context => "context",
            TraceCategory::Agent => "agent",
            TraceCategory::Application => "application",
            TraceCategory::Network => "network",
        };
        f.write_str(s)
    }
}

/// A structured simulation event.
///
/// Entity identifiers are pre-rendered strings (`app-3`, `host-1`,
/// `ma-app-3@host-1`) because this crate sits below the crates that
/// define those types. Quantities are typed so exporters and analyses
/// never re-parse the display text.
///
/// The `Display` impl reproduces the exact free-form strings this log
/// carried before it was structured; tests assert substrings of them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An application was deployed on a host.
    Deployed {
        /// Human application name.
        app_name: String,
        /// Assigned application id.
        app: String,
        /// Hosting device.
        host: String,
    },
    /// The context layer classified and routed an event.
    ContextEvent {
        /// Debug rendering of the event data.
        description: String,
        /// How many subscribers it was routed to.
        subscribers: usize,
    },
    /// The context layer published an event with no routing step.
    Published {
        /// Debug rendering of the event data.
        description: String,
    },
    /// AA decided a follow-me (cut-paste) migration.
    DecideFollowMe {
        /// Application being moved.
        app_name: String,
        /// Chosen destination host.
        dest_host: String,
        /// Number of components to ship.
        components: usize,
        /// Debug rendering of the data strategy.
        data_strategy: String,
    },
    /// AA decided a clone-dispatch (copy-paste) replication.
    DecideClone {
        /// Chosen destination host.
        dest_host: String,
    },
    /// AA declined: the rule base derived no move action.
    DeclineNoMove {
        /// Application that stays put.
        app_name: String,
        /// Estimated response time fed to the rules, in milliseconds.
        response_time_ms: f64,
    },
    /// AA declined: the destination fails device requirements.
    DeclineDevice {
        /// Application that stays put.
        app_name: String,
        /// Rejected destination host.
        dest_host: String,
    },
    /// AA found no candidate host in the user's new space.
    NoHost {
        /// Space that was searched.
        space: String,
    },
    /// Components pre-staged at a predicted next hop.
    PreStage {
        /// Bytes transferred ahead of the user.
        bytes: u64,
        /// Application name.
        app_name: String,
        /// Predicted destination host.
        dest_host: String,
    },
    /// Coordinator suspended the application; snapshot manager recorded
    /// component states.
    Suspend {
        /// Application being suspended.
        app: String,
    },
    /// Snapshot manager copied live states for a clone (no suspend).
    SnapshotClone {
        /// Application being cloned.
        app: String,
    },
    /// Mobile agent wrapped components for transfer.
    Wrap {
        /// Serialized cargo size in bytes.
        bytes: u64,
    },
    /// MA checked out of the source platform.
    CheckOut {
        /// Migrating agent id.
        agent: String,
        /// Source host.
        src: String,
        /// Destination host.
        dest: String,
        /// Frame + cargo size in bytes.
        bytes: u64,
    },
    /// MA dispatched a clone of itself.
    CloneDispatch {
        /// Original agent id.
        agent: String,
        /// Clone agent id.
        clone: String,
        /// Destination host.
        dest: String,
        /// Frame + cargo size in bytes.
        bytes: u64,
    },
    /// MA checked in at the destination platform.
    CheckIn {
        /// Arriving agent id.
        agent: String,
        /// Destination host.
        dest: String,
    },
    /// MA check-in failed (agent dropped).
    CheckInFailed {
        /// Agent that failed to arrive.
        agent: String,
        /// Destination host.
        dest: String,
    },
    /// MA restored the application at the destination.
    Restore {
        /// Restored application id.
        app: String,
        /// Destination host.
        dest: String,
    },
    /// Application resumed execution at the destination.
    Resumed {
        /// Resumed application id.
        app: String,
        /// Destination host.
        dest: String,
    },
    /// Clone MA installed a replica application.
    ReplicaInstalled {
        /// New replica application id.
        replica: String,
        /// Source application id.
        source: String,
        /// Destination host.
        dest: String,
    },
    /// Replica started running with a synchronization link.
    ReplicaRunning {
        /// Replica application id.
        replica: String,
    },
    /// A transfer was lost in flight on a faulty link.
    TransferDropped {
        /// Agent whose transfer was lost.
        agent: String,
        /// Link that dropped the payload.
        link: u32,
    },
    /// A transfer could not start because a route link is down.
    TransferBlocked {
        /// Agent whose transfer was refused.
        agent: String,
        /// Down link on the route.
        link: u32,
    },
    /// Middleware re-dispatches a timed-out migration.
    MigrationRetry {
        /// Application being migrated.
        app: String,
        /// Attempt number about to start (1-based).
        attempt: u32,
    },
    /// Migration exhausted its retries; the source rolled the app back.
    MigrationAborted {
        /// Application rolled back.
        app: String,
        /// Destination that was never reached.
        dest: String,
        /// Transfer attempts made before giving up.
        attempts: u32,
    },
    /// Destination rejected a delta snapshot; the full snapshot was used.
    SnapshotResend {
        /// Application whose delta failed to apply.
        app_name: String,
        /// Size of the full snapshot that replaced it, in bytes.
        bytes: u64,
    },
    /// An SLO's multi-window burn rate crossed its alert threshold.
    SloBurnAlert {
        /// Objective that fired.
        slo: String,
        /// Short-window burn rate × 1000 at the transition.
        short_burn_milli: u64,
        /// Long-window burn rate × 1000 at the transition.
        long_burn_milli: u64,
    },
    /// A firing SLO alert dropped back under its burn threshold.
    SloRecovered {
        /// Objective that recovered.
        slo: String,
    },
    /// Free-form fallback for events without a structured variant.
    Text(String),
}

impl TraceEvent {
    /// Stable machine-readable tag for this event kind (used by the
    /// JSONL/Chrome trace exporters in `mdagent-bench`).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Deployed { .. } => "deployed",
            TraceEvent::ContextEvent { .. } => "context_event",
            TraceEvent::Published { .. } => "published",
            TraceEvent::DecideFollowMe { .. } => "decide_follow_me",
            TraceEvent::DecideClone { .. } => "decide_clone",
            TraceEvent::DeclineNoMove { .. } => "decline_no_move",
            TraceEvent::DeclineDevice { .. } => "decline_device",
            TraceEvent::NoHost { .. } => "no_host",
            TraceEvent::PreStage { .. } => "prestage",
            TraceEvent::Suspend { .. } => "suspend",
            TraceEvent::SnapshotClone { .. } => "snapshot_clone",
            TraceEvent::Wrap { .. } => "wrap",
            TraceEvent::CheckOut { .. } => "check_out",
            TraceEvent::CloneDispatch { .. } => "clone_dispatch",
            TraceEvent::CheckIn { .. } => "check_in",
            TraceEvent::CheckInFailed { .. } => "check_in_failed",
            TraceEvent::Restore { .. } => "restore",
            TraceEvent::Resumed { .. } => "resumed",
            TraceEvent::ReplicaInstalled { .. } => "replica_installed",
            TraceEvent::ReplicaRunning { .. } => "replica_running",
            TraceEvent::TransferDropped { .. } => "transfer_dropped",
            TraceEvent::TransferBlocked { .. } => "transfer_blocked",
            TraceEvent::MigrationRetry { .. } => "migration_retry",
            TraceEvent::MigrationAborted { .. } => "migration_aborted",
            TraceEvent::SnapshotResend { .. } => "snapshot_resend",
            TraceEvent::SloBurnAlert { .. } => "slo_burn_alert",
            TraceEvent::SloRecovered { .. } => "slo_recovered",
            TraceEvent::Text(_) => "text",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Deployed {
                app_name,
                app,
                host,
            } => write!(f, "deployed {app_name} as {app} on {host}"),
            TraceEvent::ContextEvent {
                description,
                subscribers,
            } => write!(
                f,
                "context event {description} -> {subscribers} subscriber(s)"
            ),
            TraceEvent::Published { description } => write!(f, "published {description}"),
            TraceEvent::DecideFollowMe {
                app_name,
                dest_host,
                components,
                data_strategy,
            } => write!(
                f,
                "AA decides follow-me of {app_name} to {dest_host} \
                 (ship {components} component(s), data {data_strategy})"
            ),
            TraceEvent::DecideClone { dest_host } => {
                write!(f, "AA decides clone-dispatch to {dest_host}")
            }
            TraceEvent::DeclineNoMove {
                app_name,
                response_time_ms,
            } => write!(
                f,
                "AA declines migration of {app_name}: rules derived no move \
                 (responseTime {response_time_ms:.1} ms)"
            ),
            TraceEvent::DeclineDevice {
                app_name,
                dest_host,
            } => write!(
                f,
                "AA declines migration of {app_name}: {dest_host} fails device requirements"
            ),
            TraceEvent::NoHost { space } => {
                write!(f, "AA found no host in {space}; staying put")
            }
            TraceEvent::PreStage {
                bytes,
                app_name,
                dest_host,
            } => write!(
                f,
                "pre-staging {bytes} bytes of {app_name} at {dest_host} (predicted next hop)"
            ),
            TraceEvent::Suspend { app } => {
                write!(
                    f,
                    "coordinator suspends {app}; snapshot manager records states"
                )
            }
            TraceEvent::SnapshotClone { app } => {
                write!(f, "snapshot manager copies live states of {app} for clone")
            }
            TraceEvent::Wrap { bytes } => write!(f, "MA wraps components ({bytes} bytes)"),
            TraceEvent::CheckOut {
                agent,
                src,
                dest,
                bytes,
            } => write!(
                f,
                "MA check-out: {agent} leaves {src} for {dest} carrying {bytes} bytes"
            ),
            TraceEvent::CloneDispatch {
                agent,
                clone,
                dest,
                bytes,
            } => write!(
                f,
                "MA clone: {agent} dispatches {clone} to {dest} carrying {bytes} bytes"
            ),
            TraceEvent::CheckIn { agent, dest } => {
                write!(f, "MA check-in: {agent} arrives at {dest}")
            }
            TraceEvent::CheckInFailed { agent, dest } => {
                write!(f, "MA check-in FAILED for {agent} at {dest}")
            }
            TraceEvent::Restore { app, dest } => {
                write!(f, "MA restores {app} at {dest}; rebinding and adapting")
            }
            TraceEvent::Resumed { app, dest } => write!(f, "{app} resumed at {dest}"),
            TraceEvent::ReplicaInstalled {
                replica,
                source,
                dest,
            } => write!(
                f,
                "clone MA installs replica {replica} of {source} at {dest}"
            ),
            TraceEvent::ReplicaRunning { replica } => {
                write!(
                    f,
                    "replica {replica} running; synchronization link established"
                )
            }
            TraceEvent::TransferDropped { agent, link } => {
                write!(f, "transfer of {agent} dropped on link-{link}")
            }
            TraceEvent::TransferBlocked { agent, link } => {
                write!(f, "transfer of {agent} blocked: link-{link} is down")
            }
            TraceEvent::MigrationRetry { app, attempt } => {
                write!(f, "migration of {app} timed out; retry attempt {attempt}")
            }
            TraceEvent::MigrationAborted {
                app,
                dest,
                attempts,
            } => write!(
                f,
                "migration of {app} to {dest} ABORTED after {attempts} attempt(s); \
                 rolled back at source"
            ),
            TraceEvent::SnapshotResend { app_name, bytes } => write!(
                f,
                "delta rejected for {app_name}; full snapshot resent ({bytes} bytes)"
            ),
            TraceEvent::SloBurnAlert {
                slo,
                short_burn_milli,
                long_burn_milli,
            } => write!(
                f,
                "SLO {slo} burning error budget at {}.{:03}x short / {}.{:03}x long",
                short_burn_milli / 1000,
                short_burn_milli % 1000,
                long_burn_milli / 1000,
                long_burn_milli % 1000
            ),
            TraceEvent::SloRecovered { slo } => {
                write!(f, "SLO {slo} recovered; burn rates back under threshold")
            }
            TraceEvent::Text(message) => f.write_str(message),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// When the event happened on the simulated clock.
    pub at: SimTime,
    /// Which layer produced it.
    pub category: TraceCategory,
    /// What happened, structured.
    pub event: TraceEvent,
}

impl TraceEntry {
    /// The stable human-readable message (renders [`TraceEvent`]).
    pub fn message(&self) -> String {
        self.event.to_string()
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.at, self.category, self.event)
    }
}

/// Append-only log of simulation events.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{Trace, TraceCategory, SimTime};
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::from_millis(5), TraceCategory::Agent, "MA check-out");
/// assert_eq!(trace.entries().len(), 1);
/// assert!(trace.contains("check-out"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    enabled: bool,
}

impl Trace {
    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        Trace {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled trace that drops all records (for benchmarks).
    pub fn disabled() -> Self {
        Trace {
            entries: Vec::new(),
            enabled: false,
        }
    }

    /// Whether records are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a free-form entry (no-op when disabled).
    pub fn record(&mut self, at: SimTime, category: TraceCategory, message: impl Into<String>) {
        if self.enabled {
            if self.entries.len() == self.entries.capacity() {
                // Entry log grows for the whole run; grow in explicit 1k
                // chunks so appends on measurement paths stay a branch.
                self.entries.reserve(1024);
            }
            self.entries.push(TraceEntry {
                at,
                category,
                event: TraceEvent::Text(message.into()),
            });
        }
    }

    /// Appends a structured entry (no-op when disabled).
    pub fn record_event(&mut self, at: SimTime, category: TraceCategory, event: TraceEvent) {
        if self.enabled {
            self.entries.push(TraceEntry {
                at,
                category,
                event,
            });
        }
    }

    /// All entries in recording order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of one category, in order.
    pub fn by_category(&self, category: TraceCategory) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// Whether any entry's message contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.entries.iter().any(|e| e.message().contains(needle))
    }

    /// Asserts that the given needles occur in order (not necessarily
    /// adjacent). Returns the first missing or out-of-order needle.
    pub fn check_sequence<'a>(&self, needles: &[&'a str]) -> Result<(), &'a str> {
        let mut from = 0usize;
        for needle in needles {
            match self.entries[from..]
                .iter()
                .position(|e| e.message().contains(needle))
            {
                Some(offset) => from += offset + 1,
                None => return Err(needle),
            }
        }
        Ok(())
    }

    /// Drops all entries (keeps enablement).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, TraceCategory::Sensor, "beacon 3 fired");
        t.record(SimTime::from_millis(1), TraceCategory::Agent, "AA decision");
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.by_category(TraceCategory::Agent).count(), 1);
        assert!(t.contains("decision"));
    }

    #[test]
    fn disabled_trace_drops_records() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceCategory::Sensor, "x");
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn sequence_checking() {
        let mut t = Trace::new();
        for msg in ["suspend", "wrap", "migrate", "resume"] {
            t.record(SimTime::ZERO, TraceCategory::Application, msg);
        }
        assert_eq!(t.check_sequence(&["suspend", "migrate", "resume"]), Ok(()));
        assert_eq!(t.check_sequence(&["resume", "suspend"]), Err("suspend"));
        assert_eq!(t.check_sequence(&["missing"]), Err("missing"));
    }

    #[test]
    fn display_formats_entry() {
        let e = TraceEntry {
            at: SimTime::from_millis(2),
            category: TraceCategory::Network,
            event: TraceEvent::Text("transfer".into()),
        };
        assert_eq!(e.to_string(), "[2.000ms network] transfer");
    }

    #[test]
    fn structured_events_render_legacy_strings() {
        let cases: Vec<(TraceEvent, &str)> = vec![
            (
                TraceEvent::CheckOut {
                    agent: "ma-app-0@host-0".into(),
                    src: "host-0".into(),
                    dest: "host-3".into(),
                    bytes: 4608,
                },
                "MA check-out: ma-app-0@host-0 leaves host-0 for host-3 carrying 4608 bytes",
            ),
            (
                TraceEvent::Suspend {
                    app: "app-0".into(),
                },
                "coordinator suspends app-0; snapshot manager records states",
            ),
            (
                TraceEvent::Wrap { bytes: 4096 },
                "MA wraps components (4096 bytes)",
            ),
            (
                TraceEvent::Resumed {
                    app: "app-0".into(),
                    dest: "host-3".into(),
                },
                "app-0 resumed at host-3",
            ),
            (
                TraceEvent::DeclineNoMove {
                    app_name: "MediaPlayer".into(),
                    response_time_ms: 12.34,
                },
                "AA declines migration of MediaPlayer: rules derived no move \
                 (responseTime 12.3 ms)",
            ),
            (
                TraceEvent::DecideFollowMe {
                    app_name: "MediaPlayer".into(),
                    dest_host: "host-3".into(),
                    components: 2,
                    data_strategy: "CarryAll".into(),
                },
                "AA decides follow-me of MediaPlayer to host-3 \
                 (ship 2 component(s), data CarryAll)",
            ),
            (
                TraceEvent::ContextEvent {
                    description: "LocationChanged".into(),
                    subscribers: 1,
                },
                "context event LocationChanged -> 1 subscriber(s)",
            ),
        ];
        for (event, expected) in cases {
            assert_eq!(event.to_string(), expected);
        }
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(TraceEvent::Wrap { bytes: 1 }.kind(), "wrap");
        assert_eq!(TraceEvent::Text("x".into()).kind(), "text");
    }
}
