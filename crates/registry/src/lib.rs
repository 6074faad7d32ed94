//! # mdagent-registry — application & resource registry with semantic
//! matching
//!
//! The paper backs its registry center with Juddi and MySQL; applications
//! register WSDL-like interface descriptions and resources are described
//! in OWL so agents can match them *semantically* (§3.3, §4.2.2). This
//! crate provides that registry; it keeps no interface descriptions,
//! because no lookup reads them:
//!
//! * [`ApplicationRecord`]/[`ResourceRecord`] — advertisements of deployed
//!   application components and shareable resources.
//! * [`RegistryCenter`] — one per smart space; resource facts mirror into
//!   an ontology graph and lookups run through the OWL reasoner, so an
//!   `hpLaserJet` satisfies a request for any `Printer`
//!   ([`MatchQuality::Subsumed`]), unlike the syntactic matching the paper
//!   argues against (provided for comparison as
//!   [`RegistryCenter::find_resources_syntactic`]).
//! * [`RegistryFederation`] — cross-space lookups, flagging gateway hops.
//!
//! # Examples
//!
//! ```
//! use mdagent_registry::{RegistryCenter, ResourceRecord, MatchQuality};
//! use mdagent_simnet::{SpaceId, HostId};
//!
//! let mut center = RegistryCenter::new(SpaceId(0));
//! center.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
//! center.register_resource(
//!     ResourceRecord::new("imcl:prn-821", "imcl:hpLaserJet", SpaceId(0), HostId(0)),
//! );
//! let hits = center.find_resources("imcl:Printer");
//! assert_eq!(hits[0].quality, MatchQuality::Subsumed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod center;
mod federation;
mod matching;
mod record;

pub use center::RegistryCenter;
pub use federation::{Federated, FederationError, RegistryFederation};
pub use matching::{MatchQuality, ResourceMatch};
pub use record::{ApplicationRecord, ResourceRecord};
