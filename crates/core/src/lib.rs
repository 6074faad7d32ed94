//! # mdagent-core — the MDAgent middleware
//!
//! This crate is the paper's primary contribution: middleware support for
//! agent-based application mobility in pervasive environments. It ties the
//! substrate crates into the four-layer architecture of Fig. 2:
//!
//! * **Application layer** — the two-level application model (Fig. 3):
//!   [`Application`] with [`ComponentSet`] (logic / presentation / data),
//!   [`Binding`]s, the Observer-pattern [`Coordinator`], the
//!   [`SnapshotManager`], and the [`adaptor`](adapt).
//! * **Agent layer** — [`MobileAgent`] (wraps serializable components,
//!   checks out/in across containers) and [`AutonomousAgent`] (listens to
//!   context events, reasons with the paper's Fig. 6 rule base via
//!   [`decide_move`], plans migrations).
//! * **Context layer** — embedded [`ContextKernel`]
//!   (re-exported from `mdagent-context`), driven by the middleware's
//!   sensing loop.
//! * **Sensor layer** — simulated Cricket beacons inside the kernel.
//!
//! The taxonomy of Fig. 1 is explicit in the types: [`MobilityMode`]
//! (follow-me / clone-dispatch) × [`MobilityDomain`] (intra- / inter-space)
//! × per-component [`MigrationPlan`]s, under an adaptive or static
//! [`BindingPolicy`] — the comparison evaluated in the paper's Figs. 8–10.
//!
//! # Examples
//!
//! Build the paper's two-PC testbed and deploy a media player:
//!
//! ```
//! use mdagent_core::{Middleware, ComponentSet, Component, ComponentKind, UserProfile,
//!                    DeviceProfile};
//! use mdagent_context::UserId;
//! use mdagent_simnet::CpuFactor;
//!
//! let mut b = Middleware::builder();
//! let office = b.space("office");
//! let p4 = b.host("p4", office, CpuFactor::REFERENCE, DeviceProfile::pc);
//! let pm = b.host("pm", office, CpuFactor::new(0.94), DeviceProfile::pc);
//! b.ethernet(p4, pm)?;
//! let (mut world, mut sim) = b.build();
//!
//! let components: ComponentSet = [
//!     Component::synthetic("codec", ComponentKind::Logic, 180_000),
//!     Component::synthetic("ui", ComponentKind::Presentation, 60_000),
//!     Component::synthetic("track", ComponentKind::Data, 2_000_000),
//! ].into_iter().collect();
//! let app = Middleware::deploy_app(
//!     &mut world, &mut sim, "smart-media-player", p4, components,
//!     UserProfile::new(UserId(0)),
//! )?;
//! sim.run(&mut world);
//! assert_eq!(world.app(app)?.host, p4);
//! # Ok::<(), mdagent_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Reachable panics are typed errors in this crate; unwraps live in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod adaptor;
mod agents;
mod app;
mod binding;
mod component;
mod coordinator;
mod datapath;
mod error;
mod layers;
mod messages;
mod middleware;
mod mobility;
mod observability;
mod profile;
mod rules;
mod snapshot;
mod timing;

pub use adaptor::{adapt, Adaptation, AdaptationReport};
pub use agents::{plan_migration, AutonomousAgent, MobileAgent};
pub use app::{AppId, AppState, Application};
pub use binding::{rebind, Binding, BindingTarget, RebindOutcome};
pub use component::{Component, ComponentKind, ComponentSet};
pub use coordinator::{Coordinator, ObserverRec};
pub use datapath::{ComponentCache, DataPathOptions};
pub use error::CoreError;
pub use layers::{
    AbortReason, AdmissionControlLayer, Arrival, CargoDraft, CheckinFlow, DataPathLayer,
    ExactlyOnceLayer, FaultRetryLayer, FlightSetup, InFlight, LayerStack, MigrationLayer,
    ResumeOutcome, SloLayer, TelemetryLayer, TransferFlow,
};
pub use messages::{ontologies, Cargo, ContextNotice, RetryNotice, SyncUpdate, TraceContext};
pub use middleware::{Middleware, MiddlewareBuilder, MigrationReport};
pub use mobility::{BindingPolicy, DataStrategy, MigrationPlan, MobilityDomain, MobilityMode};
pub use observability::{
    ObservabilityOptions, SloOptions, SLO_MIGRATION_COMPLETION, SLO_MIGRATION_LATENCY,
    SLO_REGISTRY_LOOKUP,
};
pub use profile::{DeviceClass, DeviceProfile, UserProfile};
pub use rules::{
    decide_move, decide_move_with, paper_rules, DecisionEngine, MoveDecision, PAPER_RULES,
};
pub use snapshot::{Snapshot, SnapshotDelta, SnapshotManager};
pub use timing::{CostModel, HostClock, PhaseTimes, RoundTrip};

// Fault injection is configured through the builder; re-export the simnet
// types so callers need not depend on mdagent-simnet for the options.
pub use mdagent_registry::ResourceRecord;
pub use mdagent_simnet::{FaultInjector, FaultOptions, SamplerOptions, SamplerStats, SloMonitor};

// Re-export the context kernel type alongside, for doc linkage.
pub use mdagent_context::ContextKernel;
