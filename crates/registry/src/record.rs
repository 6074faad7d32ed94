//! Registry records: WSDL-like interface descriptions, application and
//! resource advertisements.

use std::fmt;

use mdagent_simnet::{HostId, SpaceId};

/// One operation of a service interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name, e.g. `"play"`.
    pub name: String,
    /// Input message parts.
    pub inputs: Vec<String>,
    /// Output message parts.
    pub outputs: Vec<String>,
}

impl Operation {
    /// Creates an operation.
    pub fn new(
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = &'static str>,
        outputs: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        Operation {
            name: name.into(),
            inputs: inputs.into_iter().map(str::to_owned).collect(),
            outputs: outputs.into_iter().map(str::to_owned).collect(),
        }
    }
}

/// A WSDL-like interface description (paper §4.2.2: applications register
/// "with their interface descriptions … in a WSDL-like format").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterfaceDescription {
    /// Service name.
    pub service: String,
    /// Exposed operations.
    pub operations: Vec<Operation>,
    /// Transport endpoint, e.g. `"acl://ma-player@mdagent"`.
    pub endpoint: String,
}

impl InterfaceDescription {
    /// Creates an empty description for a service.
    pub fn new(service: impl Into<String>) -> Self {
        InterfaceDescription {
            service: service.into(),
            operations: Vec::new(),
            endpoint: String::new(),
        }
    }

    /// Adds an operation (builder style).
    #[cfg(test)]
    pub fn operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Sets the endpoint (builder style).
    pub fn endpoint(mut self, endpoint: impl Into<String>) -> Self {
        self.endpoint = endpoint.into();
        self
    }
}

impl fmt::Display for InterfaceDescription {
    /// Renders a compact WSDL-like textual form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "<service name=\"{}\" endpoint=\"{}\">",
            self.service, self.endpoint
        )?;
        for op in &self.operations {
            writeln!(
                f,
                "  <operation name=\"{}\" input=\"{}\" output=\"{}\"/>",
                op.name,
                op.inputs.join(","),
                op.outputs.join(",")
            )?;
        }
        write!(f, "</service>")
    }
}

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
    /// Its interface.
    pub interface: InterfaceDescription,
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
        let name = name.into();
        ApplicationRecord {
            interface: InterfaceDescription::new(name.clone()),
            name,
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

    /// Sets transferability (builder style).
    pub fn transferable(mut self, yes: bool) -> Self {
        self.transferable = yes;
        self
    }

    /// Sets substitutability (builder style).
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
    /// every consumer (the [`RegistryCenter::expire_leases`] sweep and
    /// lookup-time filtering alike) shares this boundary through this one
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
    fn interface_renders_wsdl_like_text() {
        let iface = InterfaceDescription::new("media-player")
            .endpoint("acl://ma-player@mdagent")
            .operation(Operation::new("play", ["track"], ["status"]))
            .operation(Operation::new("stop", [], ["status"]));
        let text = iface.to_string();
        assert!(text.contains("<service name=\"media-player\""));
        assert!(text.contains("<operation name=\"play\" input=\"track\" output=\"status\"/>"));
        assert!(text.ends_with("</service>"));
    }

    #[test]
    fn application_record_builders() {
        let rec = ApplicationRecord::new("editor", SpaceId(0), HostId(1))
            .with_component("presentation")
            .with_component("logic")
            .with_requirement("screen-width", "800");
        assert!(rec.has_component("logic"));
        assert!(!rec.has_component("data"));
        assert_eq!(rec.requirements.len(), 1);
        assert_eq!(rec.interface.service, "editor");
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
            .transferable(false)
            .substitutable(true)
            .address("host-0:9100");
        assert!(!rec.transferable);
        assert!(rec.substitutable);
        assert_eq!(rec.address, "host-0:9100");
    }
}
