//! Application components: the units of migration.
//!
//! "An executing application generally consists of user interfaces, logic,
//! computation states, and resource bindings" (§1); the mobile agent "can
//! wrap any serializable part and migrate to the destination" (§4.3).

use std::fmt;
use std::sync::{Arc, OnceLock};

use mdagent_wire::{digest_of, impl_wire_enum, impl_wire_struct, Blob, Digest, Wire};

/// The kind of an application component (Fig. 3's upper level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Application logic (the codec of the media player, editor engine…).
    Logic,
    /// User interface.
    Presentation,
    /// Data files (music, documents, slides).
    Data,
    /// A bound external resource descriptor.
    Resource,
}

impl_wire_enum!(ComponentKind {
    Logic = 0,
    Presentation = 1,
    Data = 2,
    Resource = 3,
});

impl ComponentKind {
    /// The registry tag for this kind (what [`ApplicationRecord::components`]
    /// stores).
    ///
    /// [`ApplicationRecord::components`]: mdagent_registry::ApplicationRecord
    pub fn tag(self) -> &'static str {
        match self {
            ComponentKind::Logic => "logic",
            ComponentKind::Presentation => "presentation",
            ComponentKind::Data => "data",
            ComponentKind::Resource => "resource",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A serializable application component.
///
/// Components are immutable values: the payload lives in a shared
/// [`Blob`], so a clone (into a cargo, the content store, or a destination
/// inventory) copies no payload bytes. The content digest is computed at
/// most once and shared by every clone; it never travels on the wire and
/// plays no part in equality.
#[derive(Debug, Clone)]
pub struct Component {
    name: String,
    kind: ComponentKind,
    payload: Blob,
    digest: Arc<OnceLock<Digest>>,
}

impl_wire_struct!(Component {
    name,
    kind,
    payload
} skip { digest });

impl PartialEq for Component {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.kind == other.kind && self.payload == other.payload
    }
}

impl Component {
    /// Creates a component with an opaque payload of `size` bytes
    /// (synthetic bodies for simulation).
    pub fn synthetic(name: impl Into<String>, kind: ComponentKind, size: usize) -> Self {
        Component::new(name.into(), kind, Blob::zeroed(size))
    }

    /// Creates a component around real bytes.
    pub fn with_payload(name: impl Into<String>, kind: ComponentKind, payload: Vec<u8>) -> Self {
        Component::new(name.into(), kind, Blob::from(payload))
    }

    fn new(name: String, kind: ComponentKind, payload: Blob) -> Self {
        Component {
            name,
            kind,
            payload,
            digest: Arc::default(),
        }
    }

    /// Component name, unique within its application ("codec", "playlist").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What kind of component this is.
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The serialized body; its length drives migration cost.
    pub fn payload(&self) -> &Blob {
        &self.payload
    }

    /// Payload size in bytes.
    pub fn size(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Content digest: equal to [`digest_of`] over this component, hashed
    /// on first use and then shared by every clone.
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| digest_of(self))
    }
}

/// The component inventory of an application.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComponentSet {
    components: Vec<Component>,
}

impl_wire_struct!(ComponentSet { components });

impl ComponentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component (replacing a same-named one).
    pub fn insert(&mut self, component: Component) {
        self.components.retain(|c| c.name != component.name);
        self.components.push(component);
    }

    /// Removes a component by name.
    pub fn remove(&mut self, name: &str) -> Option<Component> {
        let idx = self.components.iter().position(|c| c.name == name)?;
        Some(self.components.remove(idx))
    }

    /// Looks up a component by name.
    pub fn get(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// All components of a kind.
    pub fn of_kind(&self, kind: ComponentKind) -> impl Iterator<Item = &Component> {
        self.components.iter().filter(move |c| c.kind == kind)
    }

    /// Whether any component of the kind exists.
    pub fn has_kind(&self, kind: ComponentKind) -> bool {
        self.of_kind(kind).next().is_some()
    }

    /// Iterates over all components.
    pub fn iter(&self) -> impl Iterator<Item = &Component> {
        self.components.iter()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Total payload bytes across all components.
    pub fn total_bytes(&self) -> u64 {
        self.components.iter().map(Component::size).sum()
    }

    /// Total payload bytes of one kind.
    pub fn bytes_of_kind(&self, kind: ComponentKind) -> u64 {
        self.of_kind(kind).map(Component::size).sum()
    }

    /// Extracts the named components into a new set (used by the MA to
    /// wrap exactly what the plan says).
    pub fn subset(&self, names: &[String]) -> ComponentSet {
        ComponentSet {
            components: self
                .components
                .iter()
                .filter(|c| names.contains(&c.name))
                .cloned()
                .collect(),
        }
    }

    /// Merges another set into this one (replacing same-named entries).
    pub fn merge(&mut self, other: ComponentSet) {
        for c in other.components {
            self.insert(c);
        }
    }

    /// Exact wire size of the whole set.
    pub fn wire_len(&self) -> u64 {
        self.encoded_len() as u64
    }
}

impl FromIterator<Component> for ComponentSet {
    fn from_iter<I: IntoIterator<Item = Component>>(iter: I) -> Self {
        let mut set = ComponentSet::new();
        for c in iter {
            set.insert(c);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_wire::{digest_of, from_bytes, to_bytes};

    fn set() -> ComponentSet {
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("track", ComponentKind::Data, 2_000_000),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn inventory_queries() {
        let s = set();
        assert_eq!(s.len(), 3);
        assert!(s.has_kind(ComponentKind::Logic));
        assert!(!s.has_kind(ComponentKind::Resource));
        assert_eq!(s.bytes_of_kind(ComponentKind::Data), 2_000_000);
        assert_eq!(s.total_bytes(), 2_240_000);
        assert_eq!(s.get("codec").unwrap().kind(), ComponentKind::Logic);
        assert!(s.get("ghost").is_none());
    }

    #[test]
    fn insert_replaces_same_name() {
        let mut s = set();
        s.insert(Component::synthetic("codec", ComponentKind::Logic, 10));
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("codec").unwrap().size(), 10);
    }

    #[test]
    fn subset_and_merge() {
        let s = set();
        let shipped = s.subset(&["codec".into(), "track".into()]);
        assert_eq!(shipped.len(), 2);
        let mut dest = ComponentSet::new();
        dest.insert(Component::synthetic(
            "ui",
            ComponentKind::Presentation,
            60_000,
        ));
        let mut dest2 = dest.clone();
        dest2.merge(shipped);
        assert_eq!(dest2.len(), 3);
    }

    #[test]
    fn remove_component() {
        let mut s = set();
        assert!(s.remove("ui").is_some());
        assert!(s.remove("ui").is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn wire_roundtrip_and_size() {
        let s = set();
        let bytes = to_bytes(&s);
        assert_eq!(bytes.len() as u64, s.wire_len());
        let back: ComponentSet = from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Wire size is dominated by payload bytes.
        assert!(s.wire_len() >= s.total_bytes());
        assert!(s.wire_len() < s.total_bytes() + 1024);
    }

    #[test]
    fn digest_is_the_digest_of_the_component() {
        let synthetic = Component::synthetic("codec", ComponentKind::Logic, 180_000);
        assert_eq!(synthetic.digest(), digest_of(&synthetic));
        let real = Component::with_payload("ui", ComponentKind::Presentation, vec![1, 2, 3]);
        assert_eq!(real.digest(), digest_of(&real));
        assert_ne!(real.digest(), synthetic.digest());
        // A clone taken before the first digest computes the same value.
        let fresh = Component::synthetic("track", ComponentKind::Data, 9_000);
        let clone = fresh.clone();
        assert_eq!(clone.digest(), digest_of(&fresh));
        assert_eq!(fresh.digest(), clone.digest());
        // The memo never travels: a decoded copy recomputes it.
        let back: Component = from_bytes(&to_bytes(&synthetic)).unwrap();
        assert_eq!(back.digest(), digest_of(&synthetic));
    }

    #[test]
    fn clones_share_the_payload_bytes() {
        let original = Component::synthetic("codec", ComponentKind::Logic, 180_000);
        let clone = original.clone();
        assert_eq!(
            clone.payload().as_slice().as_ptr(),
            original.payload().as_slice().as_ptr()
        );
        let s = set();
        let shipped = s.subset(&["codec".into()]);
        assert_eq!(
            shipped.get("codec").unwrap().payload().as_slice().as_ptr(),
            s.get("codec").unwrap().payload().as_slice().as_ptr()
        );
    }

    #[test]
    fn equality_ignores_the_digest_memo() {
        let hashed = Component::synthetic("codec", ComponentKind::Logic, 1_000);
        let _ = hashed.digest();
        let unhashed = Component::synthetic("codec", ComponentKind::Logic, 1_000);
        assert_eq!(hashed, unhashed);
        assert_eq!(unhashed, hashed);
        assert_ne!(
            hashed,
            Component::synthetic("codec", ComponentKind::Logic, 1_001)
        );
        assert_ne!(
            hashed,
            Component::synthetic("codec", ComponentKind::Data, 1_000)
        );
    }

    #[test]
    fn kind_tags() {
        assert_eq!(ComponentKind::Logic.tag(), "logic");
        assert_eq!(ComponentKind::Data.to_string(), "data");
    }
}
