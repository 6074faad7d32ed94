//! Registry records: application and resource advertisements.

use mdagent_simnet::{HostId, SpaceId};

/// Advertisement of a deployed application (or application component set).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationRecord {
    /// Application name, e.g. `"smart-media-player"`.
    pub name: String,
    /// The space it is available in.
    pub space: SpaceId,
    /// The host it runs on / is installed on.
    pub host: HostId,
    /// Which component kinds are installed there (`"logic"`,
    /// `"presentation"`, `"data"` …).
    pub components: Vec<String>,
    /// Minimum device requirements, free-form `key=value` pairs
    /// (`"screen-width=800"`).
    pub requirements: Vec<(String, String)>,
    /// Content digests of installed components, as `(component name,
    /// 64-bit digest of the component's wire encoding)`. A migration
    /// source consults these to elide shipping components the
    /// destination already holds byte-identically.
    pub digests: Vec<(String, u64)>,
}

impl ApplicationRecord {
    /// Creates a record with no components or requirements.
    pub fn new(name: impl Into<String>, space: SpaceId, host: HostId) -> Self {
        ApplicationRecord {
            name: name.into(),
            space,
            host,
            components: Vec::new(),
            requirements: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Marks a component kind as installed (builder style).
    pub fn with_component(mut self, kind: impl Into<String>) -> Self {
        self.components.push(kind.into());
        self
    }

    /// Adds a device requirement (builder style).
    pub fn with_requirement(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.requirements.push((key.into(), value.into()));
        self
    }

    /// Whether a component kind is installed.
    pub fn has_component(&self, kind: &str) -> bool {
        self.components.iter().any(|c| c == kind)
    }

    /// Advertises a component's content digest (builder style). A later
    /// digest for the same component name replaces the earlier one.
    #[cfg(test)]
    pub fn with_digest(mut self, component: impl Into<String>, digest: u64) -> Self {
        self.set_digest(component.into(), digest);
        self
    }

    /// Records (or replaces) a component's content digest.
    pub fn set_digest(&mut self, component: String, digest: u64) {
        if let Some(entry) = self.digests.iter_mut().find(|(n, _)| *n == component) {
            entry.1 = digest;
        } else {
            self.digests.push((component, digest));
        }
    }

    /// The advertised digest of a component, if any.
    #[cfg(test)]
    pub fn component_digest(&self, component: &str) -> Option<u64> {
        self.digests
            .iter()
            .find(|(n, _)| n == component)
            .map(|(_, d)| *d)
    }

    /// Whether any advertised component carries exactly this digest
    /// (semantic match: same bytes under a different name still count).
    pub fn has_digest(&self, digest: u64) -> bool {
        self.digests.iter().any(|(_, d)| *d == digest)
    }
}

/// Advertisement of a shareable resource (printer, projector, data file…).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRecord {
    /// Individual name (ontology IRI), e.g. `"imcl:prn-821"`.
    pub name: String,
    /// Ontology class, e.g. `"imcl:hpLaserJet"`.
    pub class: String,
    /// The space the resource is in.
    pub space: SpaceId,
    /// The host that serves it.
    pub host: HostId,
    /// Whether the resource can be shipped to another host.
    pub transferable: bool,
    /// Whether a same-class resource elsewhere is an acceptable stand-in.
    pub substitutable: bool,
    /// Network address string (the paper's `imcl:address`).
    pub address: String,
    /// Simulated time (µs) at which the advertisement lapses, if the
    /// publisher leased it. [`RegistryCenter::expire_leases`] deregisters
    /// lapsed records through the incremental retraction path.
    ///
    /// [`RegistryCenter::expire_leases`]: crate::RegistryCenter::expire_leases
    pub lease_expiry: Option<u64>,
}

impl ResourceRecord {
    /// Creates a resource record.
    pub fn new(
        name: impl Into<String>,
        class: impl Into<String>,
        space: SpaceId,
        host: HostId,
    ) -> Self {
        ResourceRecord {
            name: name.into(),
            class: class.into(),
            space,
            host,
            transferable: false,
            substitutable: true,
            address: String::new(),
            lease_expiry: None,
        }
    }

    /// Sets substitutability (builder style).
    #[cfg(test)]
    pub fn substitutable(mut self, yes: bool) -> Self {
        self.substitutable = yes;
        self
    }

    /// Sets the address (builder style).
    pub fn address(mut self, addr: impl Into<String>) -> Self {
        self.address = addr.into();
        self
    }

    /// Leases the advertisement until `expiry` (builder style). The lease
    /// is exclusive of its endpoint: the record is active while
    /// `now < expiry` and lapsed from `now == expiry` onward (see
    /// [`ResourceRecord::lease_active`]).
    pub fn lease_until(mut self, expiry: u64) -> Self {
        self.lease_expiry = Some(expiry);
        self
    }

    /// Whether the advertisement is still live at simulated time `now`
    /// (µs). Unleased records never lapse. The expiry instant itself is
    /// *lapsed* — `lease_until(t)` means active strictly before `t` — and
    /// the [`RegistryCenter::expire_leases`] sweep applies this one
    /// predicate.
    ///
    /// [`RegistryCenter::expire_leases`]: crate::RegistryCenter::expire_leases
    pub fn lease_active(&self, now: u64) -> bool {
        self.lease_expiry.is_none_or(|at| now < at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_record_builders() {
        let rec = ApplicationRecord::new("editor", SpaceId(0), HostId(1))
            .with_component("presentation")
            .with_component("logic")
            .with_requirement("screen-width", "800");
        assert!(rec.has_component("logic"));
        assert!(!rec.has_component("data"));
        assert_eq!(rec.requirements.len(), 1);
    }

    #[test]
    fn application_record_digests() {
        let mut rec = ApplicationRecord::new("player", SpaceId(0), HostId(0))
            .with_digest("codec", 0xABCD)
            .with_digest("player-ui", 7);
        assert_eq!(rec.component_digest("codec"), Some(0xABCD));
        assert_eq!(rec.component_digest("missing"), None);
        assert!(rec.has_digest(7));
        assert!(!rec.has_digest(8));
        rec.set_digest("codec".into(), 1);
        assert_eq!(rec.component_digest("codec"), Some(1));
        assert_eq!(rec.digests.len(), 2, "replace, not append");
    }

    #[test]
    fn resource_record_builders() {
        let rec = ResourceRecord::new("imcl:prn-821", "imcl:hpLaserJet", SpaceId(0), HostId(0))
            .substitutable(true)
            .address("host-0:9100");
        assert!(rec.substitutable);
        assert_eq!(rec.address, "host-0:9100");
    }
}
