//! # mdagent-simnet — deterministic simulation substrate
//!
//! The MDAgent paper evaluated its middleware on a two-PC, 10 Mbps Ethernet
//! testbed with Cricket location sensors. This crate replaces that physical
//! testbed with a deterministic discrete-event simulation so the whole
//! reproduction is replayable on a laptop:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated clock.
//! * [`Simulator`] — event queue with FIFO tie-breaking at equal instants.
//! * [`Topology`] — smart spaces, hosts (with relative [`CpuFactor`]s),
//!   LAN links and inter-space gateway links; fewest-hops routing and
//!   latency + bandwidth transfer costing.
//! * [`SimRng`] — seeded randomness (sensor noise).
//! * [`FaultInjector`] — opt-in, seeded network fault injection (per-link
//!   drops, transient link-down windows, gateway outage).
//! * [`MetricsRegistry`] and [`Trace`] — measurement and narration.
//! * [`Telemetry`] — span-based profiling on the simulated clock, plus an
//!   opt-in bounded tail-based sampler ([`Telemetry::sampled`]). The crate
//!   keeps no JSON code: `mdagent-bench` exports spans as JSONL and
//!   Chrome trace-event (Perfetto) documents through `mdagent-json`.
//! * [`SloMonitor`] — rolling-window service-level objectives with
//!   multi-window burn-rate alert edges.
//!
//! # Examples
//!
//! Build the paper's testbed — two machines on 10 Mbps Ethernet — and cost a
//! 2 MB transfer:
//!
//! ```
//! use mdagent_simnet::{Topology, CpuFactor, SimDuration};
//!
//! let mut topo = Topology::new();
//! let office = topo.add_space("office");
//! let p4 = topo.add_host("p4-1.7ghz", office, CpuFactor::REFERENCE);
//! let pm = topo.add_host("pm-1.6ghz", office, CpuFactor::new(0.94));
//! topo.add_lan_link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8)?;
//! let cost = topo.transfer_time(p4, pm, 2_000_000)?;
//! assert!(cost > SimDuration::from_secs(1));
//! # Ok::<(), mdagent_simnet::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod fault;
mod intern;
mod metrics;
mod rng;
mod sim;
pub mod slo;
pub mod telemetry;
mod time;
mod topology;
mod trace;

pub use event::{EventData, EventId, QueueKind};
pub use fault::{FaultInjector, FaultOptions, TransferFault};
pub use intern::{Interner, Symbol};
pub use metrics::{DurationStats, Histogram, MetricsRegistry};
pub use rng::SimRng;
pub use sim::Simulator;
pub use slo::{Slo, SloEdge, SloMonitor, SloSignal, SloSpec};
pub use telemetry::{AttrValue, SamplerOptions, SamplerStats, Span, SpanGuard, SpanId, Telemetry};
pub use time::{SimDuration, SimTime};
pub use topology::{
    CpuFactor, Host, HostId, Link, LinkId, LinkKind, LinkUtilization, PipelinedTransfer, SpaceId,
    Topology, TopologyError, DEFAULT_CHUNK_BYTES,
};
pub use trace::{Trace, TraceCategory, TraceEntry, TraceEvent};
