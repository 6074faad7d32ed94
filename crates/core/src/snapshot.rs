//! Snapshot management: state persistence across migrations (paper §4.2).
//!
//! "The snapshot management is responsible for persistence process control
//! of running applications."

use std::collections::BTreeMap;

use mdagent_wire::bytes::BytesMut;
use mdagent_wire::{digest_of, impl_wire_struct, to_bytes, Wire, WireError};

use crate::app::Application;
use crate::coordinator::Coordinator;

/// A captured application snapshot: everything needed to resume elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Application name.
    pub app_name: String,
    /// Coordinator (state map, version, observers, sync links).
    pub coordinator: Coordinator,
    /// Serialized user profile bytes.
    pub profile_bytes: Vec<u8>,
    /// Monotonic capture counter.
    pub sequence: u64,
}

impl_wire_struct!(Snapshot {
    app_name,
    coordinator,
    profile_bytes,
    sequence
});

impl Snapshot {
    /// Exact wire size of the snapshot.
    pub fn wire_len(&self) -> u64 {
        self.encoded_len() as u64
    }

    /// A header-only stub: same name and sequence, no state or profile.
    /// Shipped in place of the full snapshot when a [`SnapshotDelta`]
    /// carries the state, so the cargo's fixed fields stay intact.
    pub fn header(&self) -> Snapshot {
        Snapshot {
            app_name: self.app_name.clone(),
            coordinator: Coordinator::default(),
            profile_bytes: Vec::new(),
            sequence: self.sequence,
        }
    }
}

/// A snapshot encoded as the difference against a base snapshot the
/// destination already holds (the last one it acknowledged).
///
/// The diff works on the exact wire encodings: the longest common prefix
/// and suffix of the base and next encodings are elided, and only the
/// differing middle travels. Repeat migrations of an application whose
/// state changed a little therefore ship a few hundred bytes instead of
/// the whole serialized state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Application name (lets the receiver find its base without
    /// decoding anything else).
    pub app_name: String,
    /// Sequence number of the base snapshot this delta applies to.
    pub base_sequence: u64,
    /// Content digest of the base's wire encoding; a mismatch means the
    /// receiver's base diverged and the delta must be rejected.
    pub base_digest: u64,
    /// Sequence number of the snapshot this delta reconstructs.
    pub sequence: u64,
    /// Bytes shared with the head of the base encoding.
    pub prefix_len: u64,
    /// Bytes shared with the tail of the base encoding.
    pub suffix_len: u64,
    /// The differing middle of the next encoding.
    pub middle: Vec<u8>,
}

impl_wire_struct!(SnapshotDelta {
    app_name,
    base_sequence,
    base_digest,
    sequence,
    prefix_len,
    suffix_len,
    middle
});

/// Encoding used for diffing: the sequence field is zeroed so the
/// always-changing capture counter at the tail does not defeat the
/// common-suffix trim (it travels separately in the delta). The fields
/// are encoded in place, in wire order, without cloning the snapshot.
fn normalized_bytes(snap: &Snapshot) -> Vec<u8> {
    let Snapshot {
        app_name,
        coordinator,
        profile_bytes,
        sequence: _,
    } = snap;
    let len = app_name.encoded_len()
        + coordinator.encoded_len()
        + profile_bytes.encoded_len()
        + 0u64.encoded_len();
    let mut buf = BytesMut::with_capacity(len);
    app_name.encode(&mut buf);
    coordinator.encode(&mut buf);
    profile_bytes.encode(&mut buf);
    0u64.encode(&mut buf);
    buf.freeze()
}

impl SnapshotDelta {
    /// Encodes `next` as a delta against `base`.
    pub fn between(base: &Snapshot, next: &Snapshot) -> SnapshotDelta {
        let old = normalized_bytes(base);
        let new = normalized_bytes(next);
        let prefix = old
            .iter()
            .zip(new.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let max_suffix = old.len().min(new.len()) - prefix;
        let suffix = old
            .iter()
            .rev()
            .zip(new.iter().rev())
            .take(max_suffix)
            .take_while(|(a, b)| a == b)
            .count();
        SnapshotDelta {
            app_name: next.app_name.clone(),
            base_sequence: base.sequence,
            base_digest: digest_of(base).as_u64(),
            sequence: next.sequence,
            prefix_len: prefix as u64,
            suffix_len: suffix as u64,
            middle: new[prefix..new.len() - suffix].to_vec(),
        }
    }

    /// Reconstructs the full snapshot from the receiver's base copy.
    ///
    /// # Errors
    ///
    /// [`WireError::ChecksumMismatch`] when the base is not the one the
    /// delta was computed against; decoding errors if the reassembled
    /// bytes are malformed.
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot, WireError> {
        if digest_of(base).as_u64() != self.base_digest {
            return Err(WireError::ChecksumMismatch);
        }
        let old = normalized_bytes(base);
        let prefix = self.prefix_len as usize;
        let suffix = self.suffix_len as usize;
        if prefix > old.len() || suffix > old.len() - prefix {
            return Err(WireError::ChecksumMismatch);
        }
        let mut bytes = Vec::with_capacity(prefix + self.middle.len() + suffix);
        bytes.extend_from_slice(&old[..prefix]);
        bytes.extend_from_slice(&self.middle);
        bytes.extend_from_slice(&old[old.len() - suffix..]);
        let mut snapshot: Snapshot = mdagent_wire::from_bytes(&bytes)?;
        snapshot.sequence = self.sequence;
        Ok(snapshot)
    }

    /// Exact wire size of the delta.
    pub fn wire_len(&self) -> u64 {
        self.encoded_len() as u64
    }
}

/// Captures and restores application snapshots, keeping bounded history.
///
/// # Examples
///
/// ```
/// use mdagent_core::{Application, AppId, SnapshotManager};
/// use mdagent_simnet::HostId;
///
/// let mut mgr = SnapshotManager::new(4);
/// let mut app = Application::new(AppId(0), "player", HostId(0));
/// app.coordinator.set_state("track", "prelude.mp3");
/// let snap = mgr.capture(&app);
/// assert_eq!(snap.coordinator.state("track"), Some("prelude.mp3"));
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotManager {
    history: BTreeMap<String, Vec<Snapshot>>,
    capacity: usize,
    sequence: u64,
}

impl SnapshotManager {
    /// Creates a manager retaining up to `capacity` snapshots per app.
    pub fn new(capacity: usize) -> Self {
        SnapshotManager {
            history: BTreeMap::new(),
            capacity: capacity.max(1),
            sequence: 0,
        }
    }

    /// Captures the application's migratable state.
    pub fn capture(&mut self, app: &Application) -> Snapshot {
        self.sequence += 1;
        let snap = Snapshot {
            app_name: app.name.clone(),
            coordinator: app.coordinator.clone(),
            profile_bytes: to_bytes(&app.user_profile),
            sequence: self.sequence,
        };
        let entry = self.history.entry(app.name.clone()).or_default();
        if entry.len() == self.capacity {
            entry.remove(0);
        }
        entry.push(snap.clone());
        snap
    }

    /// Restores a snapshot into an application (coordinator + profile).
    ///
    /// # Errors
    ///
    /// Propagates profile decoding failures.
    pub fn restore(snap: &Snapshot, app: &mut Application) -> Result<(), WireError> {
        app.coordinator = snap.coordinator.clone();
        app.user_profile = mdagent_wire::from_bytes(&snap.profile_bytes)?;
        Ok(())
    }

    /// The latest retained snapshot of an app.
    pub fn latest(&self, app_name: &str) -> Option<&Snapshot> {
        self.history.get(app_name).and_then(|v| v.last())
    }

    /// Number of retained snapshots for an app.
    pub fn retained(&self, app_name: &str) -> usize {
        self.history.get(app_name).map_or(0, Vec::len)
    }

    /// A retained snapshot of an app by capture sequence number, if it is
    /// still within the bounded history. Used to resolve the base of a
    /// [`SnapshotDelta`].
    pub fn by_sequence(&self, app_name: &str, sequence: u64) -> Option<&Snapshot> {
        self.history
            .get(app_name)
            .and_then(|v| v.iter().find(|s| s.sequence == sequence))
    }
}

/// Consistency check used by the tests and the MA after restore: the
/// restored application must agree with the snapshot on state version and
/// content.
pub fn is_consistent(snap: &Snapshot, app: &Application) -> bool {
    app.name == snap.app_name
        && app.coordinator.version() == snap.coordinator.version()
        && app.coordinator.state_map() == snap.coordinator.state_map()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppId;
    use crate::profile::UserProfile;
    use mdagent_context::UserId;
    use mdagent_simnet::HostId;

    fn app() -> Application {
        let mut app = Application::new(AppId(0), "player", HostId(0));
        app.coordinator.set_state("track", "prelude.mp3");
        app.coordinator.set_state("position-ms", "92000");
        app.user_profile = UserProfile::new(UserId(1)).with_preference("volume", "8");
        app
    }

    #[test]
    fn capture_restore_identity() {
        let mut mgr = SnapshotManager::new(4);
        let source = app();
        let snap = mgr.capture(&source);
        assert!(is_consistent(&snap, &source));

        let mut fresh = Application::new(AppId(1), "player", HostId(1));
        SnapshotManager::restore(&snap, &mut fresh).unwrap();
        assert_eq!(fresh.coordinator.state("position-ms"), Some("92000"));
        assert_eq!(fresh.user_profile.preference("volume"), Some("8"));
        assert!(is_consistent(&snap, &fresh));
    }

    #[test]
    fn history_is_bounded_and_ordered() {
        let mut mgr = SnapshotManager::new(2);
        let mut a = app();
        for i in 0..5 {
            a.coordinator.set_state("i", i.to_string());
            mgr.capture(&a);
        }
        assert_eq!(mgr.retained("player"), 2);
        let latest = mgr.latest("player").unwrap();
        assert_eq!(latest.coordinator.state("i"), Some("4"));
        assert!(latest.sequence >= 5);
        assert_eq!(mgr.retained("ghost"), 0);
        assert!(mgr.latest("ghost").is_none());
    }

    #[test]
    fn consistency_detects_divergence() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let snap = mgr.capture(&a);
        a.coordinator.set_state("track", "changed.mp3");
        assert!(!is_consistent(&snap, &a));
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let mut mgr = SnapshotManager::new(4);
        let snap = mgr.capture(&app());
        let bytes = to_bytes(&snap);
        assert_eq!(bytes.len() as u64, snap.wire_len());
        let back: Snapshot = mdagent_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn normalized_bytes_are_the_zero_sequence_encoding() {
        let mut mgr = SnapshotManager::new(4);
        let snap = mgr.capture(&app());
        assert_ne!(snap.sequence, 0);
        let zeroed = Snapshot {
            sequence: 0,
            ..snap.clone()
        };
        assert_eq!(normalized_bytes(&snap), to_bytes(&zeroed));
    }

    #[test]
    fn delta_roundtrip_equals_full_snapshot() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        // Mutate a little state, as repeat migrations of a running app do.
        a.coordinator.set_state("position-ms", "184000");
        let next = mgr.capture(&a);

        let delta = SnapshotDelta::between(&base, &next);
        let rebuilt = delta.apply(&base).unwrap();
        assert_eq!(rebuilt, next, "delta apply must reproduce the snapshot");
        assert!(
            delta.wire_len() < next.wire_len(),
            "small state change must encode smaller than the full snapshot: {} vs {}",
            delta.wire_len(),
            next.wire_len()
        );
    }

    #[test]
    fn delta_roundtrip_handles_growth_and_shrink() {
        let mut mgr = SnapshotManager::new(8);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator
            .set_state("playlist", "a-very-long-newly-added-entry");
        let grown = mgr.capture(&a);
        let d1 = SnapshotDelta::between(&base, &grown);
        assert_eq!(d1.apply(&base).unwrap(), grown);

        a.coordinator.set_state("playlist", "x");
        let shrunk = mgr.capture(&a);
        let d2 = SnapshotDelta::between(&grown, &shrunk);
        assert_eq!(d2.apply(&grown).unwrap(), shrunk);
    }

    #[test]
    fn delta_rejects_wrong_base() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator.set_state("track", "fugue.mp3");
        let next = mgr.capture(&a);
        let delta = SnapshotDelta::between(&base, &next);

        a.coordinator.set_state("track", "toccata.mp3");
        let diverged = mgr.capture(&a);
        assert!(matches!(
            delta.apply(&diverged),
            Err(WireError::ChecksumMismatch)
        ));
    }

    #[test]
    fn delta_wire_roundtrip() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator.set_state("track", "fugue.mp3");
        let next = mgr.capture(&a);
        let delta = SnapshotDelta::between(&base, &next);
        let bytes = to_bytes(&delta);
        assert_eq!(bytes.len() as u64, delta.wire_len());
        let back: SnapshotDelta = mdagent_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.apply(&base).unwrap(), next);
    }

    #[test]
    fn snapshot_header_keeps_name_and_sequence_only() {
        let mut mgr = SnapshotManager::new(4);
        let snap = mgr.capture(&app());
        let header = snap.header();
        assert_eq!(header.app_name, snap.app_name);
        assert_eq!(header.sequence, snap.sequence);
        assert!(header.profile_bytes.is_empty());
        assert!(header.wire_len() < snap.wire_len());
    }

    #[test]
    fn by_sequence_finds_retained_snapshots() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let first = mgr.capture(&a);
        a.coordinator.set_state("track", "fugue.mp3");
        let second = mgr.capture(&a);
        assert_eq!(mgr.by_sequence("player", first.sequence), Some(&first));
        assert_eq!(mgr.by_sequence("player", second.sequence), Some(&second));
        assert_eq!(mgr.by_sequence("player", 999), None);
        assert_eq!(mgr.by_sequence("ghost", first.sequence), None);
    }

    #[test]
    fn corrupt_profile_restore_errors() {
        let mut mgr = SnapshotManager::new(4);
        let mut snap = mgr.capture(&app());
        snap.profile_bytes = vec![0xFF, 0xFF, 0xFF];
        let mut fresh = Application::new(AppId(1), "player", HostId(1));
        assert!(SnapshotManager::restore(&snap, &mut fresh).is_err());
    }
}
