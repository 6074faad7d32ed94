//! Cross-space registry federation.
//!
//! Each smart space runs its own registry center; looking across a space
//! boundary requires gateway support (paper Fig. 1's inter-space domain).
//! The federation resolves which center serves a space and answers
//! remote queries, reporting whether a gateway hop was involved so the
//! caller can account for its cost.

use std::collections::BTreeMap;

use mdagent_simnet::SpaceId;

use crate::center::RegistryCenter;
use crate::matching::ResourceMatch;
use crate::record::ApplicationRecord;

/// Errors from federated lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// No registry center serves this space.
    NoCenter(SpaceId),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoCenter(s) => write!(f, "no registry center for {s}"),
        }
    }
}

impl std::error::Error for FederationError {}

/// A federated query answer, flagging whether it crossed a space boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Federated<T> {
    /// The answer.
    pub value: T,
    /// Whether the query had to cross into another space (gateway hop).
    pub crossed_gateway: bool,
}

/// The set of per-space registry centers.
///
/// # Examples
///
/// ```
/// use mdagent_registry::{RegistryFederation, ApplicationRecord};
/// use mdagent_simnet::{SpaceId, HostId};
///
/// let mut fed = RegistryFederation::new();
/// fed.add_center(SpaceId(0));
/// fed.add_center(SpaceId(1));
/// fed.center_mut(SpaceId(1)).unwrap().register_application(
///     ApplicationRecord::new("slide-show", SpaceId(1), HostId(2)),
/// );
/// let hit = fed.find_application(SpaceId(0), SpaceId(1), "slide-show")?;
/// assert!(hit.crossed_gateway);
/// assert!(hit.value.is_some());
/// # Ok::<(), mdagent_registry::FederationError>(())
/// ```
#[derive(Debug, Default)]
pub struct RegistryFederation {
    centers: BTreeMap<SpaceId, RegistryCenter>,
}

impl RegistryFederation {
    /// Creates an empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry center for a space (idempotent).
    pub fn add_center(&mut self, space: SpaceId) -> &mut RegistryCenter {
        self.centers
            .entry(space)
            .or_insert_with(|| RegistryCenter::new(space))
    }

    /// The center for a space.
    pub fn center(&self, space: SpaceId) -> Option<&RegistryCenter> {
        self.centers.get(&space)
    }

    /// Mutable center access.
    pub fn center_mut(&mut self, space: SpaceId) -> Option<&mut RegistryCenter> {
        self.centers.get_mut(&space)
    }

    /// Spaces that currently have a registry center, ascending.
    pub fn spaces(&self) -> Vec<SpaceId> {
        self.centers.keys().copied().collect()
    }

    /// Finds an application record in `target` space, querying from
    /// `origin` space.
    ///
    /// # Errors
    ///
    /// [`FederationError::NoCenter`] when the target space has no registry.
    pub fn find_application(
        &self,
        origin: SpaceId,
        target: SpaceId,
        name: &str,
    ) -> Result<Federated<Option<ApplicationRecord>>, FederationError> {
        let center = self
            .centers
            .get(&target)
            .ok_or(FederationError::NoCenter(target))?;
        Ok(Federated {
            value: center.application(name).cloned(),
            crossed_gateway: origin != target,
        })
    }

    /// Semantic resource lookup in `target` space, from `origin` space.
    ///
    /// # Errors
    ///
    /// [`FederationError::NoCenter`] when the target space has no registry.
    pub fn find_resources(
        &mut self,
        origin: SpaceId,
        target: SpaceId,
        required_class: &str,
    ) -> Result<Federated<Vec<ResourceMatch>>, FederationError> {
        let center = self
            .centers
            .get_mut(&target)
            .ok_or(FederationError::NoCenter(target))?;
        Ok(Federated {
            value: center.find_resources(required_class),
            crossed_gateway: origin != target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ResourceRecord;
    use mdagent_simnet::HostId;

    fn federation() -> RegistryFederation {
        let mut fed = RegistryFederation::new();
        fed.add_center(SpaceId(0));
        fed.add_center(SpaceId(1));
        let c1 = fed.center_mut(SpaceId(1)).unwrap();
        c1.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        c1.register_resource(ResourceRecord::new(
            "imcl:prn-822",
            "imcl:hpLaserJet",
            SpaceId(1),
            HostId(3),
        ));
        c1.register_application(ApplicationRecord::new("editor", SpaceId(1), HostId(3)));
        fed
    }

    #[test]
    fn intra_space_lookup_no_gateway() {
        let fed = federation();
        let hit = fed
            .find_application(SpaceId(1), SpaceId(1), "editor")
            .unwrap();
        assert!(!hit.crossed_gateway);
        assert!(hit.value.is_some());
    }

    #[test]
    fn inter_space_lookup_flags_gateway() {
        let mut fed = federation();
        let hit = fed
            .find_resources(SpaceId(0), SpaceId(1), "imcl:Printer")
            .unwrap();
        assert!(hit.crossed_gateway);
        assert_eq!(hit.value.len(), 1);
    }

    #[test]
    fn missing_center_errors() {
        let fed = federation();
        let err = fed
            .find_application(SpaceId(0), SpaceId(9), "editor")
            .unwrap_err();
        assert_eq!(err, FederationError::NoCenter(SpaceId(9)));
        assert!(err.to_string().contains("space-9"));
    }

    #[test]
    fn add_center_is_idempotent() {
        let mut fed = RegistryFederation::new();
        fed.add_center(SpaceId(0));
        fed.add_center(SpaceId(0));
        assert_eq!(fed.spaces(), [SpaceId(0)]);
    }

    #[test]
    fn missing_application_is_none_not_error() {
        let fed = federation();
        let hit = fed
            .find_application(SpaceId(0), SpaceId(1), "ghost")
            .unwrap();
        assert!(hit.value.is_none());
    }
}
