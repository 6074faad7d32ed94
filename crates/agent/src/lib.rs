//! # mdagent-agent — a JADE-like agent platform on the simulated network
//!
//! The paper implements its autonomous agents (AA) and mobile agents (MA)
//! on JADE 3.4. This crate rebuilds the slice of JADE the middleware needs:
//!
//! * [`AgentId`]/[`ContainerId`] — JADE-style naming; one container per
//!   participating host.
//! * [`AclMessage`]/[`Performative`] — FIPA-ACL messages with wire-encoded
//!   content and size-accurate transport cost.
//! * [`Agent`] — the agent behaviour trait: `on_start`, `on_message`,
//!   `on_timer`, plus `snapshot()` so the platform can serialize state.
//! * [`Platform`] — AMS + message transport + mobility: `spawn`, `send`,
//!   one-shot timers, `suspend`/`resume`, and the two mobility primitives
//!   the paper's taxonomy needs — [`Platform::move_agent`] (follow-me /
//!   cut-paste) and [`Platform::clone_agent`] (clone-dispatch /
//!   copy-paste). Both are fronts over one departure: a move takes the
//!   agent off the source, a clone leaves it running and pre-creates the
//!   clone's slot at the destination. Agents in transit buffer their
//!   messages and check in at the destination, where a registered factory
//!   reconstructs them from their snapshot. A departure requested inside
//!   the agent's own callback runs when the callback returns; if it then
//!   fails, the world hears of it as a [`DeferredFailure`].
//!
//! Service discovery is not part of this slice: MDAgent finds applications
//! and resources through its registry centers (`mdagent-registry`, the
//! paper's Juddi), so the platform keeps no DF.
//!
//! The platform is generic over a *world* type implementing
//! [`PlatformHost`]; the MDAgent middleware embeds a platform next to its
//! context layer and registries and drives everything from one
//! deterministic event loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod acl;
mod agent;
mod error;
mod id;
mod platform;

pub use acl::{AclMessage, Performative};
pub use agent::{Agent, Cx, Journey, LifecycleState};
pub use error::AgentError;
pub use id::{AgentId, ContainerId};
pub use platform::{
    AgentFactory, DeferredFailure, Platform, PlatformEnv, PlatformHost, AGENT_FRAME_BYTES,
    LOCAL_DELIVERY, MIGRATION_SETUP, REMOTE_OVERHEAD,
};
