//! The coordinator: Observer-pattern state synchronization (paper §4.2).
//!
//! "Different presentations register themselves to the coordinator. When
//! the states change, these presentations can get notified automatically."

use std::collections::BTreeMap;

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
    state: BTreeMap<String, String>,
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
    pub fn set_state(&mut self, key: impl Into<String>, value: impl Into<String>) -> u64 {
        self.state.insert(key.into(), value.into());
        self.version += 1;
        self.version
    }

    /// Applies a remote update only if it is newer than local state;
    /// returns whether it was applied (stale updates are dropped, which is
    /// what keeps replica convergence monotone).
    pub fn apply_remote(&mut self, key: &str, value: &str, version: u64) -> bool {
        if version <= self.version {
            return false;
        }
        self.state.insert(key.to_owned(), value.to_owned());
        self.version = version;
        true
    }

    /// Reads a state entry.
    pub fn state(&self, key: &str) -> Option<&str> {
        self.state.get(key).map(String::as_str)
    }

    /// The whole state map.
    pub fn state_map(&self) -> &BTreeMap<String, String> {
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
