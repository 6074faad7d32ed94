//! Agent and container identifiers.

use std::fmt;

use mdagent_wire::{impl_wire_struct, Wire};

/// Identifier of an agent container (one per participating host, as in
/// JADE's container model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u32);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "container-{}", self.0)
    }
}

impl Wire for ContainerId {
    fn encode(&self, buf: &mut mdagent_wire::bytes::BytesMut) {
        self.0.encode(buf);
    }
    fn decode(reader: &mut mdagent_wire::Reader<'_>) -> Result<Self, mdagent_wire::WireError> {
        u32::decode(reader).map(ContainerId)
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// A globally unique agent name, JADE-style `localname@platform`.
///
/// # Examples
///
/// ```
/// use mdagent_agent::AgentId;
///
/// let id = AgentId::new("ma-player", "mdagent");
/// assert_eq!(id.to_string(), "ma-player@mdagent");
/// assert_eq!(id.local_name(), "ma-player");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId {
    local: String,
    platform: String,
}

impl AgentId {
    /// Creates an id from a local name and platform name.
    pub fn new(local: impl Into<String>, platform: impl Into<String>) -> Self {
        AgentId {
            local: local.into(),
            platform: platform.into(),
        }
    }

    /// The local (per-platform) name.
    pub fn local_name(&self) -> &str {
        &self.local
    }

    /// Derives the name used for the `n`-th clone of this agent.
    pub fn clone_name(&self, n: u64) -> AgentId {
        AgentId {
            local: format!("{}#clone{}", self.local, n),
            platform: self.platform.clone(),
        }
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.local, self.platform)
    }
}

impl_wire_struct!(AgentId { local, platform });

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_wire::{from_bytes, to_bytes};

    #[test]
    fn display_and_accessors() {
        let id = AgentId::new("aa-1", "mdagent");
        assert_eq!(id.local_name(), "aa-1");
        assert_eq!(format!("{id}"), "aa-1@mdagent");
        assert_eq!(ContainerId(3).to_string(), "container-3");
    }

    #[test]
    fn clone_names_are_distinct() {
        let id = AgentId::new("ma", "p");
        assert_ne!(id.clone_name(0), id.clone_name(1));
        assert_ne!(id.clone_name(0), id);
        assert_eq!(id.clone_name(2).local_name(), "ma#clone2");
    }

    #[test]
    fn wire_roundtrip() {
        let id = AgentId::new("ma", "p");
        let back: AgentId = from_bytes(&to_bytes(&id)).unwrap();
        assert_eq!(back, id);
        let c: ContainerId = from_bytes(&to_bytes(&ContainerId(7))).unwrap();
        assert_eq!(c, ContainerId(7));
    }
}
