//! The [`Agent`] trait and its execution context.

use mdagent_simnet::Simulator;

use crate::acl::AclMessage;
use crate::id::{AgentId, ContainerId};
use crate::platform::PlatformHost;

/// How an agent came to arrive at a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journey {
    /// First activation after [`Platform::spawn`](crate::Platform::spawn).
    Born,
    /// Arrived through a follow-me move (the original left the source).
    Moved {
        /// Where the agent came from.
        from: ContainerId,
    },
    /// This agent is a clone dispatched from `from`; the original persists.
    Cloned {
        /// Container of the original agent.
        from: ContainerId,
    },
}

/// Lifecycle states of an agent, after JADE's lifecycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Created but not yet started.
    Initiated,
    /// Running and receiving messages.
    Active,
    /// Paused; messages are buffered.
    Suspended,
    /// Serialized and travelling between containers; messages are buffered.
    InTransit,
    /// Terminated; messages are dropped.
    Deleted,
}

/// Execution context handed to every agent callback.
///
/// Bundles the agent's identity with mutable access to the world and the
/// simulator, so agent code can send messages, schedule timers and request
/// migration via the [`Platform`](crate::Platform) associated functions.
pub struct Cx<'a, W: PlatformHost> {
    /// The agent being invoked.
    pub id: &'a AgentId,
    /// The shared world (implements [`PlatformHost`]).
    pub world: &'a mut W,
    /// The simulation engine.
    pub sim: &'a mut Simulator<W>,
}

impl<W: PlatformHost> std::fmt::Debug for Cx<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cx").field("id", &self.id).finish()
    }
}

/// A software agent hosted by the [`Platform`](crate::Platform).
///
/// Implementations provide state snapshotting so the platform can move or
/// clone them between containers (the essence of a *mobile* agent); a
/// factory registered under [`type_name`](Agent::type_name) reconstructs
/// the agent from its snapshot at the destination.
pub trait Agent<W: PlatformHost>: 'static {
    /// Stable type tag used to find the reconstruction factory.
    fn type_name(&self) -> &'static str;

    /// Serializes migratable state.
    fn snapshot(&self) -> Vec<u8>;

    /// Called once when the agent starts, and again on arrival after a
    /// move or clone.
    fn on_start(&mut self, journey: Journey, cx: Cx<'_, W>) {
        let _ = (journey, cx);
    }

    /// Called for each delivered ACL message.
    fn on_message(&mut self, msg: &AclMessage, cx: Cx<'_, W>) {
        let _ = (msg, cx);
    }

    /// Called when a timer set through the platform fires.
    fn on_timer(&mut self, tag: u64, cx: Cx<'_, W>) {
        let _ = (tag, cx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journey_and_state_are_plain_data() {
        assert_ne!(
            Journey::Born,
            Journey::Moved {
                from: ContainerId(0)
            }
        );
        assert_ne!(
            Journey::Moved {
                from: ContainerId(1)
            },
            Journey::Cloned {
                from: ContainerId(1)
            }
        );
        assert_eq!(LifecycleState::Active, LifecycleState::Active);
        assert_ne!(LifecycleState::Suspended, LifecycleState::InTransit);
    }
}
