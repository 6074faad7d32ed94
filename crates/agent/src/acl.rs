//! FIPA-ACL-style messages.
//!
//! The paper's AAs and MAs "communicate through message passing"; this is
//! the message vocabulary, modelled on FIPA ACL as implemented by JADE.

use std::fmt;

use mdagent_wire::{impl_wire_enum, impl_wire_struct, Blob, Wire};

use crate::id::AgentId;

/// FIPA communicative acts used by the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Performative {
    /// Assert a fact.
    Inform,
    /// Ask the receiver to perform an action.
    Request,
    /// Accept a previous request.
    Agree,
    /// Decline a previous request.
    Refuse,
    /// Answer a query.
    QueryRef,
    /// Propose an action (used in clone-dispatch negotiation).
    Propose,
    /// Accept a proposal.
    AcceptProposal,
    /// Report a failed action.
    Failure,
    /// Subscribe to notifications.
    Subscribe,
    /// Cancel a prior request or subscription.
    Cancel,
}

impl_wire_enum!(Performative {
    Inform = 0,
    Request = 1,
    Agree = 2,
    Refuse = 3,
    QueryRef = 4,
    Propose = 5,
    AcceptProposal = 6,
    Failure = 7,
    Subscribe = 8,
    Cancel = 9,
});

impl fmt::Display for Performative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Performative::Inform => "inform",
            Performative::Request => "request",
            Performative::Agree => "agree",
            Performative::Refuse => "refuse",
            Performative::QueryRef => "query-ref",
            Performative::Propose => "propose",
            Performative::AcceptProposal => "accept-proposal",
            Performative::Failure => "failure",
            Performative::Subscribe => "subscribe",
            Performative::Cancel => "cancel",
        };
        f.write_str(s)
    }
}

/// An ACL message between two agents.
///
/// `content` carries a wire-encoded payload; `ontology` names its schema
/// (as in FIPA's ontology slot), letting receivers dispatch on it.
///
/// # Examples
///
/// ```
/// use mdagent_agent::{AclMessage, AgentId, Performative};
///
/// let msg = AclMessage::new(
///     Performative::Request,
///     AgentId::new("aa", "p"),
///     AgentId::new("ma", "p"),
/// )
/// .with_ontology("mobility")
/// .with_content(b"prepare-to-migrate".to_vec());
/// assert_eq!(msg.performative, Performative::Request);
/// assert_eq!(msg.ontology, "mobility");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AclMessage {
    /// The communicative act.
    pub performative: Performative,
    /// Sending agent.
    pub sender: AgentId,
    /// Receiving agent.
    pub receiver: AgentId,
    /// Schema name for `content`.
    pub ontology: String,
    /// Conversation correlation id.
    pub conversation_id: u64,
    /// Wire-encoded payload.
    pub content: Blob,
}

impl AclMessage {
    /// Creates a message with empty content.
    pub fn new(performative: Performative, sender: AgentId, receiver: AgentId) -> Self {
        AclMessage {
            performative,
            sender,
            receiver,
            ontology: String::new(),
            conversation_id: 0,
            content: Blob::default(),
        }
    }

    /// Sets the ontology slot.
    pub fn with_ontology(mut self, ontology: impl Into<String>) -> Self {
        self.ontology = ontology.into();
        self
    }

    /// Sets the conversation id.
    pub fn with_conversation(mut self, id: u64) -> Self {
        self.conversation_id = id;
        self
    }

    /// Sets raw content bytes.
    pub fn with_content(mut self, content: Vec<u8>) -> Self {
        self.content = Blob::from(content);
        self
    }

    /// Encodes `value` as the content.
    pub fn with_payload<T: Wire>(mut self, value: &T) -> Self {
        self.content = Blob::from(mdagent_wire::to_bytes(value));
        self
    }

    /// Decodes the content as `T`.
    ///
    /// # Errors
    ///
    /// Propagates wire decoding failures.
    pub fn payload<T: Wire>(&self) -> Result<T, mdagent_wire::WireError> {
        mdagent_wire::from_bytes(self.content.as_slice())
    }

    /// Builds a reply: swapped endpoints, same conversation.
    pub fn reply(&self, performative: Performative) -> AclMessage {
        AclMessage::new(performative, self.receiver.clone(), self.sender.clone())
            .with_ontology(self.ontology.clone())
            .with_conversation(self.conversation_id)
    }

    /// On-the-wire size of this message (drives transfer cost).
    pub fn wire_len(&self) -> usize {
        self.encoded_len()
    }
}

impl_wire_struct!(AclMessage {
    performative,
    sender,
    receiver,
    ontology,
    conversation_id,
    content
});

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_wire::{from_bytes, to_bytes};

    fn ids() -> (AgentId, AgentId) {
        (AgentId::new("a", "p"), AgentId::new("b", "p"))
    }

    #[test]
    fn builder_and_roundtrip() {
        let (a, b) = ids();
        let msg = AclMessage::new(Performative::Inform, a.clone(), b.clone())
            .with_ontology("context")
            .with_conversation(42)
            .with_payload(&("location".to_string(), 7u32));
        let bytes = to_bytes(&msg);
        assert_eq!(bytes.len(), msg.wire_len());
        let back: AclMessage = from_bytes(&bytes).unwrap();
        assert_eq!(back, msg);
        let (what, n): (String, u32) = back.payload().unwrap();
        assert_eq!((what.as_str(), n), ("location", 7));
    }

    #[test]
    fn replies_swap_endpoints_and_keep_conversation() {
        let (a, b) = ids();
        let msg = AclMessage::new(Performative::Request, a.clone(), b.clone())
            .with_ontology("mobility")
            .with_conversation(9);
        let reply = msg.reply(Performative::Agree);
        assert_eq!(reply.sender, b);
        assert_eq!(reply.receiver, a);
        assert_eq!(reply.conversation_id, 9);
        assert_eq!(reply.ontology, "mobility");
        assert_eq!(reply.performative, Performative::Agree);
    }

    #[test]
    fn payload_decode_failure_propagates() {
        let (a, b) = ids();
        let msg = AclMessage::new(Performative::Inform, a, b).with_content(vec![0xFF]);
        let res: Result<String, _> = msg.payload();
        assert!(res.is_err());
    }

    #[test]
    fn all_performatives_roundtrip() {
        for p in [
            Performative::Inform,
            Performative::Request,
            Performative::Agree,
            Performative::Refuse,
            Performative::QueryRef,
            Performative::Propose,
            Performative::AcceptProposal,
            Performative::Failure,
            Performative::Subscribe,
            Performative::Cancel,
        ] {
            let back: Performative = from_bytes(&to_bytes(&p)).unwrap();
            assert_eq!(back, p);
            assert!(!p.to_string().is_empty());
        }
    }
}
