//! The coordinator: Observer-pattern state synchronization (paper §4.2).
//!
//! "Different presentations register themselves to the coordinator. When
//! the states change, these presentations can get notified automatically."

use std::collections::BTreeMap;
use std::rc::Rc;

use mdagent_wire::impl_wire_struct;

use crate::app::AppId;

/// A registered presentation observer.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverRec {
    /// Observer name (e.g. `"main-window"`).
    pub name: String,
    /// The state version this observer has seen.
    pub seen_version: u64,
}

impl_wire_struct!(ObserverRec { name, seen_version });

/// Versioned key→value application state with observers and sync links.
///
/// State updates bump a version counter; observers are told which keys
/// changed; sync links name the replica applications (clone-dispatch) that
/// must receive the same update over the network.
///
/// Keys and values are shared strings: a copy of the coordinator (a
/// snapshot capture, its history entry, a replica) copies the map's nodes
/// and shares every key and value. A write replaces the written value, so
/// no copy ever sees another's writes.
///
/// # Examples
///
/// ```
/// use mdagent_core::Coordinator;
///
/// let mut coord = Coordinator::new();
/// coord.register_observer("main-window");
/// let version = coord.set_state("track", "prelude.mp3");
/// let stale = coord.stale_observers();
/// assert_eq!(stale, vec!["main-window".to_string()]);
/// coord.mark_seen("main-window", version);
/// assert!(coord.stale_observers().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coordinator {
    state: Rc<BTreeMap<Rc<str>, Rc<str>>>,
    version: u64,
    observers: Vec<ObserverRec>,
    sync_links_raw: Vec<u32>,
}

impl_wire_struct!(Coordinator {
    state,
    version,
    observers,
    sync_links_raw
});

impl Coordinator {
    /// Creates an empty coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a presentation observer (idempotent by name).
    pub fn register_observer(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.observers.iter().any(|o| o.name == name) {
            self.observers.push(ObserverRec {
                name,
                seen_version: self.version,
            });
        }
    }

    /// Sets a state entry, bumping and returning the new version.
    pub fn set_state(&mut self, key: impl AsRef<str>, value: impl AsRef<str>) -> u64 {
        self.put(key.as_ref(), value.as_ref());
        self.version += 1;
        self.version
    }

    /// Writes one entry, first copying the map if a copy of this
    /// coordinator still shares it. An existing key keeps its shared key
    /// string and gets a fresh value, so copies holding the old value keep
    /// it.
    fn put(&mut self, key: &str, value: &str) {
        let state = Rc::make_mut(&mut self.state);
        let value = Rc::from(value);
        match state.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                state.insert(Rc::from(key), value);
            }
        }
    }

    /// Applies a remote update only if it is newer than local state;
    /// returns whether it was applied (stale updates are dropped, which is
    /// what keeps replica convergence monotone).
    pub fn apply_remote(&mut self, key: &str, value: &str, version: u64) -> bool {
        if version <= self.version {
            return false;
        }
        self.put(key, value);
        self.version = version;
        true
    }

    /// Reads a state entry.
    pub fn state(&self, key: &str) -> Option<&str> {
        self.state.get(key).map(AsRef::as_ref)
    }

    /// The whole state map.
    pub fn state_map(&self) -> &BTreeMap<Rc<str>, Rc<str>> {
        &self.state
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Observers that have not seen the current version.
    pub fn stale_observers(&self) -> Vec<String> {
        self.observers
            .iter()
            .filter(|o| o.seen_version < self.version)
            .map(|o| o.name.clone())
            .collect()
    }

    /// Records that an observer has caught up to `version`.
    pub fn mark_seen(&mut self, name: &str, version: u64) {
        if let Some(o) = self.observers.iter_mut().find(|o| o.name == name) {
            o.seen_version = o.seen_version.max(version);
        }
    }

    /// Registered observer names.
    pub fn observers(&self) -> Vec<&str> {
        self.observers.iter().map(|o| o.name.as_str()).collect()
    }

    /// Adds a synchronization link to a replica application.
    pub fn add_sync_link(&mut self, app: AppId) {
        if !self.sync_links_raw.contains(&app.0) {
            self.sync_links_raw.push(app.0);
        }
    }

    /// Linked replica applications.
    pub fn sync_links(&self) -> Vec<AppId> {
        self.sync_links_raw.iter().copied().map(AppId).collect()
    }
}

#[cfg(test)]
impl Coordinator {
    /// The shared state map itself, for checking what copies share it.
    pub(crate) fn shared_state(&self) -> &Rc<BTreeMap<Rc<str>, Rc<str>>> {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observers_track_versions() {
        let mut c = Coordinator::new();
        c.register_observer("a");
        c.register_observer("b");
        c.register_observer("a"); // idempotent
        assert_eq!(c.observers().len(), 2);
        let v1 = c.set_state("k", "1");
        assert_eq!(c.stale_observers(), vec!["a".to_string(), "b".to_string()]);
        c.mark_seen("a", v1);
        assert_eq!(c.stale_observers(), vec!["b".to_string()]);
        let _v2 = c.set_state("k", "2");
        assert_eq!(c.stale_observers().len(), 2, "a is stale again");
    }

    #[test]
    fn remote_updates_apply_monotonically() {
        let mut c = Coordinator::new();
        c.set_state("slide", "1"); // version 1
        assert!(c.apply_remote("slide", "3", 3));
        assert_eq!(c.state("slide"), Some("3"));
        assert_eq!(c.version(), 3);
        assert!(!c.apply_remote("slide", "2", 2), "stale update dropped");
        assert_eq!(c.state("slide"), Some("3"));
    }

    /// The shared value of `key`.
    fn value(c: &Coordinator, key: &str) -> Rc<str> {
        Rc::clone(&c.state_map()[key])
    }

    #[test]
    fn a_write_keeps_the_key_and_replaces_the_value() {
        let mut c = Coordinator::new();
        c.set_state("track", "prelude.mp3");
        let (key, old) = c.state_map().first_key_value().unwrap();
        let (key, old) = (Rc::clone(key), Rc::clone(old));
        c.set_state("track", "toccata.mp3");
        let (key_now, new) = c.state_map().first_key_value().unwrap();
        assert!(Rc::ptr_eq(&key, key_now), "the key string is kept");
        assert!(!Rc::ptr_eq(&old, new), "the value is a new string");
        assert_eq!(&*old, "prelude.mp3");
        assert_eq!(c.state("track"), Some("toccata.mp3"));
    }

    #[test]
    fn a_copy_shares_strings_and_diverges_independently() {
        let mut source = Coordinator::new();
        source.set_state("slide", "12");
        source.set_state("deck", "keynote");
        let mut replica = source.clone();
        for key in ["slide", "deck"] {
            assert!(Rc::ptr_eq(&value(&source, key), &value(&replica, key)));
        }

        // A write on the source leaves the replica as copied ...
        source.set_state("slide", "13");
        assert_eq!(replica.state("slide"), Some("12"));
        // ... and a write on the replica leaves the source.
        assert!(replica.apply_remote("deck", "handout", 9));
        assert_eq!(source.state("deck"), Some("keynote"));
        assert_eq!(replica.state("deck"), Some("handout"));
        assert_eq!(source.state("slide"), Some("13"));
        assert_eq!(replica.state("slide"), Some("12"));
        // Entries neither side wrote stay shared.
        let mut copy = source.clone();
        copy.set_state("slide", "14");
        assert!(Rc::ptr_eq(&value(&source, "deck"), &value(&copy, "deck")));
    }

    #[test]
    fn a_copy_shares_the_map_until_a_write_copies_it_once() {
        let mut source = Coordinator::new();
        source.set_state("slide", "12");
        let lone = Rc::as_ptr(source.shared_state());
        source.set_state("slide", "13");
        assert_eq!(Rc::as_ptr(source.shared_state()), lone, "no copy shares it");

        let mut replica = source.clone();
        assert!(Rc::ptr_eq(source.shared_state(), replica.shared_state()));
        assert!(replica.apply_remote("deck", "keynote", 9));
        let copied = Rc::as_ptr(replica.shared_state());
        assert_ne!(copied, lone, "the write copied the shared map");
        assert_eq!(Rc::as_ptr(source.shared_state()), lone);
        assert_eq!(Rc::strong_count(source.shared_state()), 1);
        assert_eq!(Rc::strong_count(replica.shared_state()), 1);
        // Neither side copies again, and neither sees the other's writes.
        replica.set_state("slide", "14");
        source.set_state("slide", "15");
        assert_eq!(Rc::as_ptr(replica.shared_state()), copied);
        assert_eq!(Rc::as_ptr(source.shared_state()), lone);
        assert_eq!(replica.state("slide"), Some("14"));
        assert_eq!(source.state("slide"), Some("15"));
        assert_eq!(source.state("deck"), None);
        // A stale remote update copies nothing: it writes nothing.
        let copy = source.clone();
        assert!(!source.apply_remote("slide", "0", 1));
        assert!(Rc::ptr_eq(source.shared_state(), copy.shared_state()));
    }

    #[test]
    fn sync_links_dedupe() {
        let mut c = Coordinator::new();
        c.add_sync_link(AppId(1));
        c.add_sync_link(AppId(1));
        c.add_sync_link(AppId(2));
        assert_eq!(c.sync_links(), vec![AppId(1), AppId(2)]);
    }

    #[test]
    fn wire_roundtrip() {
        let mut c = Coordinator::new();
        c.register_observer("a");
        c.set_state("k", "v");
        c.add_sync_link(AppId(7));
        let back: Coordinator = mdagent_wire::from_bytes(&mdagent_wire::to_bytes(&c)).unwrap();
        assert_eq!(back, c);
    }
}
