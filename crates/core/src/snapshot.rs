//! Snapshot management: state persistence across migrations (paper §4.2).
//!
//! "The snapshot management is responsible for persistence process control
//! of running applications."

use std::cell::OnceCell;
use std::collections::BTreeMap;

use mdagent_wire::{impl_wire_struct, to_bytes, Digest, Wire, WireError};

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
/// the whole serialized state. Both ends work from the encodings the
/// [`SnapshotManager`] stores beside its retained snapshots: the sender
/// diffs them ([`SnapshotManager::delta`]) and the destination checks the
/// reconstruction against the target's ([`SnapshotManager::resolve`]).
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

/// A snapshot's encodings as the delta path uses them, computed in one
/// pass: the normalized encoding it diffs, and the content digest of the
/// full wire encoding that guards a delta's base.
#[derive(Debug, Clone)]
struct Encoding {
    /// The wire encoding with the sequence field zeroed, so the
    /// always-changing capture counter at the tail does not defeat the
    /// common-suffix trim (it travels separately in the delta).
    normalized: Vec<u8>,
    /// `digest_of` the snapshot itself, sequence included.
    digest: u64,
}

impl Encoding {
    fn of(snap: &Snapshot) -> Encoding {
        let mut normalized = to_bytes(snap);
        let digest = Digest::of_bytes(&normalized).as_u64();
        // The sequence is the last field: swap its varint for that of 0.
        normalized.truncate(normalized.len() - snap.sequence.encoded_len());
        normalized.push(0);
        Encoding { normalized, digest }
    }
}

/// A retained snapshot with its [`Encoding`], stored beside it on first
/// use. Nothing mutates a retained snapshot, so the stored encoding cannot
/// go stale; a manager whose data path never asks computes none.
#[derive(Debug, Clone)]
struct Retained {
    snapshot: Snapshot,
    encoding: OnceCell<Encoding>,
}

impl Retained {
    fn encoding(&self) -> &Encoding {
        self.encoding.get_or_init(|| Encoding::of(&self.snapshot))
    }

    /// The snapshot's exact wire length, read from the stored encoding:
    /// the zeroed sequence's varint swapped back for the real one.
    fn encoded_len(&self) -> usize {
        self.encoding().normalized.len() - 0u64.encoded_len() + self.snapshot.sequence.encoded_len()
    }
}

impl SnapshotDelta {
    /// Encodes `next` as a delta against `base`. The shared prefix and
    /// suffix never overlap, so the middle slice always exists; `None`
    /// would mean they did.
    fn between(base: &Retained, next: &Retained) -> Option<SnapshotDelta> {
        let old = &base.encoding().normalized;
        let new = &next.encoding().normalized;
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
        Some(SnapshotDelta {
            app_name: next.snapshot.app_name.clone(),
            base_sequence: base.snapshot.sequence,
            base_digest: base.encoding().digest,
            sequence: next.snapshot.sequence,
            prefix_len: prefix as u64,
            suffix_len: suffix as u64,
            middle: new.get(prefix..new.len() - suffix)?.to_vec(),
        })
    }

    /// The base's prefix and suffix this delta keeps, when `base` is the
    /// snapshot it was computed against and the lengths fit inside it.
    fn kept_ends<'a>(&self, base: &'a Encoding) -> Option<(&'a [u8], &'a [u8])> {
        if base.digest != self.base_digest {
            return None;
        }
        let prefix = usize::try_from(self.prefix_len).ok()?;
        let suffix = usize::try_from(self.suffix_len).ok()?;
        let (head, rest) = base.normalized.split_at_checked(prefix)?;
        let tail = rest.get(rest.len().checked_sub(suffix)?..)?;
        Some((head, tail))
    }

    /// Whether the delta applied to `base` reproduces `target`'s encoding
    /// byte for byte: the base's prefix, the shipped middle and the base's
    /// suffix are compared in place, without assembling a buffer.
    fn rebuilds(&self, base: &Retained, target: &Retained) -> bool {
        self.kept_ends(base.encoding()).is_some_and(|(head, tail)| {
            target
                .encoding()
                .normalized
                .strip_prefix(head)
                .and_then(|rest| rest.strip_suffix(tail))
                .is_some_and(|middle| middle == self.middle)
        })
    }

    /// Reconstructs the full snapshot from the receiver's base copy by
    /// decoding the reassembled encoding. The check-in decodes only when
    /// the target has left the bounded history
    /// ([`SnapshotManager::resolve`]); the tests use it as the oracle.
    ///
    /// # Errors
    ///
    /// [`WireError::ChecksumMismatch`] when the base is not the one the
    /// delta was computed against; decoding errors if the reassembled
    /// bytes are malformed.
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot, WireError> {
        let encoding = Encoding::of(base);
        let (head, tail) = self
            .kept_ends(&encoding)
            .ok_or(WireError::ChecksumMismatch)?;
        let mut bytes = Vec::with_capacity(head.len() + self.middle.len() + tail.len());
        bytes.extend_from_slice(head);
        bytes.extend_from_slice(&self.middle);
        bytes.extend_from_slice(tail);
        let mut snapshot: Snapshot = mdagent_wire::from_bytes(&bytes)?;
        snapshot.sequence = self.sequence;
        Ok(snapshot)
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
    history: BTreeMap<String, Vec<Retained>>,
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
        // Only an app's first capture allocates its history key.
        let entry = match self.history.get_mut(&app.name) {
            Some(entry) => entry,
            None => self.history.entry(app.name.clone()).or_default(),
        };
        if entry.len() == self.capacity {
            entry.remove(0);
        }
        entry.push(Retained {
            snapshot: snap.clone(),
            encoding: OnceCell::new(),
        });
        snap
    }

    /// Restores a snapshot into an application (coordinator + profile).
    /// Fault retry's rollback restores from a retained snapshot this way.
    ///
    /// # Errors
    ///
    /// Propagates profile decoding failures.
    pub fn restore(snap: &Snapshot, app: &mut Application) -> Result<(), WireError> {
        app.coordinator = snap.coordinator.clone();
        app.user_profile = mdagent_wire::from_bytes(&snap.profile_bytes)?;
        Ok(())
    }

    /// [`restore`](Self::restore) for a snapshot the caller is done with:
    /// the coordinator moves into the application instead of being
    /// copied, and `snap` is left as its [`header`](Snapshot::header).
    ///
    /// # Errors
    ///
    /// Propagates profile decoding failures.
    pub fn restore_by_move(snap: &mut Snapshot, app: &mut Application) -> Result<(), WireError> {
        app.coordinator = std::mem::take(&mut snap.coordinator);
        app.user_profile = mdagent_wire::from_bytes(&std::mem::take(&mut snap.profile_bytes))?;
        Ok(())
    }

    /// The latest retained snapshot of an app.
    pub fn latest(&self, app_name: &str) -> Option<&Snapshot> {
        self.history
            .get(app_name)
            .and_then(|v| v.last())
            .map(|r| &r.snapshot)
    }

    /// Number of retained snapshots for an app.
    pub fn retained(&self, app_name: &str) -> usize {
        self.history.get(app_name).map_or(0, Vec::len)
    }

    /// A retained snapshot of an app by capture sequence number, if it is
    /// still within the bounded history.
    pub fn by_sequence(&self, app_name: &str, sequence: u64) -> Option<&Snapshot> {
        self.entry(app_name, sequence).map(|r| &r.snapshot)
    }

    fn entry(&self, app_name: &str, sequence: u64) -> Option<&Retained> {
        self.history
            .get(app_name)
            .and_then(|v| v.iter().find(|r| r.snapshot.sequence == sequence))
    }

    /// The delta of retained snapshot `sequence` of an app against its
    /// retained snapshot `base_sequence`, diffed from their stored
    /// encodings, with the exact wire length of the full snapshot it
    /// stands for, read from the same encoding. `None` unless both are
    /// retained.
    pub fn delta(
        &self,
        app_name: &str,
        base_sequence: u64,
        sequence: u64,
    ) -> Option<(SnapshotDelta, usize)> {
        let base = self.entry(app_name, base_sequence)?;
        let next = self.entry(app_name, sequence)?;
        Some((SnapshotDelta::between(base, next)?, next.encoded_len()))
    }

    /// The snapshot a delta stands for, resolved against the snapshots
    /// retained here, as the destination's check-in does.
    ///
    /// When the delta's target is retained, the reconstruction is checked
    /// byte for byte against the target's stored encoding, and a match
    /// yields a copy of the target: bytes equal to a snapshot's encoding
    /// decode to exactly that snapshot, so this is what decoding them
    /// would yield. Only a target that has left the bounded history is
    /// decoded with [`SnapshotDelta::apply`]. `None` when the base is not
    /// retained, its digest differs, or the check or the decode fails.
    pub fn resolve(&self, delta: &SnapshotDelta) -> Option<Snapshot> {
        let base = self.entry(&delta.app_name, delta.base_sequence)?;
        match self.entry(&delta.app_name, delta.sequence) {
            Some(target) => delta
                .rebuilds(base, target)
                .then(|| target.snapshot.clone()),
            None => delta.apply(&base.snapshot).ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppId;
    use crate::profile::UserProfile;
    use mdagent_context::UserId;
    use mdagent_simnet::HostId;
    use mdagent_wire::digest_of;
    use std::rc::Rc;

    fn app() -> Application {
        let mut app = Application::new(AppId(0), "player", HostId(0));
        app.coordinator.set_state("track", "prelude.mp3");
        app.coordinator.set_state("position-ms", "92000");
        app.user_profile = UserProfile::new(UserId(1)).with_preference("volume", "8");
        app
    }

    /// The delta between two retained snapshots of the test app.
    fn delta(mgr: &SnapshotManager, base: &Snapshot, next: &Snapshot) -> SnapshotDelta {
        let (delta, full_len) = mgr.delta("player", base.sequence, next.sequence).unwrap();
        assert_eq!(full_len, next.encoded_len());
        delta
    }

    #[test]
    fn capture_restore_identity() {
        let mut mgr = SnapshotManager::new(4);
        let source = app();
        let snap = mgr.capture(&source);
        assert_eq!(snap.app_name, source.name);
        assert_eq!(snap.coordinator, source.coordinator);

        let mut fresh = Application::new(AppId(1), "player", HostId(1));
        SnapshotManager::restore(&snap, &mut fresh).unwrap();
        assert_eq!(fresh.coordinator.state("position-ms"), Some("92000"));
        assert_eq!(fresh.user_profile.preference("volume"), Some("8"));
        assert_eq!(fresh.coordinator, snap.coordinator);
    }

    #[test]
    fn restore_by_move_leaves_the_header() {
        let mut mgr = SnapshotManager::new(4);
        let mut snap = mgr.capture(&app());
        let header = snap.header();
        let mut by_ref = Application::new(AppId(1), "player", HostId(1));
        SnapshotManager::restore(&snap, &mut by_ref).unwrap();

        let mut by_move = Application::new(AppId(2), "player", HostId(1));
        SnapshotManager::restore_by_move(&mut snap, &mut by_move).unwrap();
        assert_eq!(by_move.coordinator, by_ref.coordinator);
        assert_eq!(by_move.user_profile, by_ref.user_profile);
        assert_eq!(snap, header);
    }

    /// Whether two coordinators hold `key`'s value in one shared string.
    fn shares(a: &Coordinator, b: &Coordinator, key: &str) -> bool {
        Rc::ptr_eq(&a.state_map()[key], &b.state_map()[key])
    }

    /// Whether two coordinators share one state map.
    fn shares_map(a: &Coordinator, b: &Coordinator) -> bool {
        Rc::ptr_eq(a.shared_state(), b.shared_state())
    }

    #[test]
    fn a_capture_shares_the_live_map_until_one_write_copies_it() {
        let mut mgr = SnapshotManager::new(4);
        let mut live = app();
        let snap = mgr.capture(&live);
        let retained = &mgr.latest("player").unwrap().coordinator;
        assert!(shares_map(&snap.coordinator, &live.coordinator));
        assert!(shares_map(retained, &live.coordinator));
        let captured = Rc::as_ptr(live.coordinator.shared_state());
        assert_eq!(Rc::strong_count(live.coordinator.shared_state()), 3);

        // The first write copies the map once, away from both copies ...
        live.coordinator.set_state("position-ms", "93000");
        let copied = Rc::as_ptr(live.coordinator.shared_state());
        assert_ne!(copied, captured);
        assert_eq!(Rc::strong_count(live.coordinator.shared_state()), 1);
        let retained = &mgr.latest("player").unwrap().coordinator;
        assert!(shares_map(&snap.coordinator, retained));
        assert_eq!(Rc::as_ptr(retained.shared_state()), captured);
        assert_eq!(retained.state("position-ms"), Some("92000"));
        // ... and later writes, local or remote, copy nothing more.
        live.coordinator.set_state("track", "toccata.mp3");
        let next_version = live.coordinator.version() + 1;
        assert!(live.coordinator.apply_remote("volume", "11", next_version));
        assert_eq!(Rc::as_ptr(live.coordinator.shared_state()), copied);
        assert_eq!(snap.coordinator.state("track"), Some("prelude.mp3"));
        assert_eq!(snap.coordinator.state("volume"), None);
    }

    #[test]
    fn restores_and_checked_checkins_share_the_retained_map() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator.set_state("position-ms", "184000");
        let next = mgr.capture(&a);
        let retained = mgr.by_sequence("player", next.sequence).unwrap();

        let checked = mgr.resolve(&delta(&mgr, &base, &next)).unwrap();
        assert_eq!(checked, next);
        assert!(shares_map(&checked.coordinator, &retained.coordinator));

        let mut rolled_back = Application::new(AppId(1), "player", HostId(1));
        SnapshotManager::restore(retained, &mut rolled_back).unwrap();
        assert!(shares_map(&rolled_back.coordinator, &retained.coordinator));
        let mut moved = Application::new(AppId(2), "player", HostId(1));
        let mut checked = checked;
        SnapshotManager::restore_by_move(&mut checked, &mut moved).unwrap();
        assert!(shares_map(&moved.coordinator, &retained.coordinator));
    }

    #[test]
    fn capture_shares_values_with_the_live_app() {
        let mut mgr = SnapshotManager::new(4);
        let source = app();
        let snap = mgr.capture(&source);
        let retained = mgr.latest("player").unwrap();
        for key in ["track", "position-ms"] {
            assert!(shares(&snap.coordinator, &source.coordinator, key));
            assert!(shares(&retained.coordinator, &source.coordinator, key));
        }
    }

    #[test]
    fn writes_after_a_capture_leave_it_and_its_encoding_alone() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let before = mgr.capture(&a);
        let bytes = to_bytes(&before);
        // Store the retained snapshot's encoding before the writes.
        let stored = mgr.entry("player", before.sequence).unwrap().encoding();
        let stored = stored.normalized.clone();

        // A same-length write, a longer one and a remote one.
        a.coordinator.set_state("track", "toccata.mp3");
        a.coordinator.set_state("position-ms", "1840000");
        let next_version = a.coordinator.version() + 1;
        assert!(a.coordinator.apply_remote("volume", "11", next_version));

        let retained = mgr.by_sequence("player", before.sequence).unwrap();
        assert_eq!(retained, &before);
        assert_eq!(retained.coordinator.state("track"), Some("prelude.mp3"));
        assert_eq!(to_bytes(retained), bytes);
        let entry = mgr.entry("player", before.sequence).unwrap();
        assert_eq!(entry.encoding().normalized, stored);
        assert_eq!(Encoding::of(&before).normalized, stored);

        // A delta from the earlier capture to a later one still resolves.
        let after = mgr.capture(&a);
        let d = delta(&mgr, &before, &after);
        assert_eq!(mgr.resolve(&d), Some(after.clone()));
        assert_eq!(d.apply(&before).unwrap(), after);

        // Rolling back restores the captured values.
        SnapshotManager::restore(mgr.by_sequence("player", before.sequence).unwrap(), &mut a)
            .unwrap();
        assert_eq!(a.coordinator.state("track"), Some("prelude.mp3"));
        assert_eq!(a.coordinator.state("position-ms"), Some("92000"));
        assert_eq!(a.coordinator.state("volume"), None);
    }

    #[test]
    fn a_replica_and_its_source_diverge_independently() {
        let mut mgr = SnapshotManager::new(4);
        let mut source = app();
        let mut snap = mgr.capture(&source);
        let mut replica = Application::new(AppId(1), "player", HostId(1));
        SnapshotManager::restore_by_move(&mut snap, &mut replica).unwrap();
        assert!(shares(&replica.coordinator, &source.coordinator, "track"));

        source.coordinator.set_state("track", "toccata.mp3");
        assert_eq!(replica.coordinator.state("track"), Some("prelude.mp3"));
        replica.coordinator.set_state("position-ms", "10000");
        assert_eq!(source.coordinator.state("position-ms"), Some("92000"));
        assert_eq!(replica.coordinator.state("position-ms"), Some("10000"));
        let retained = mgr.latest("player").unwrap();
        assert_eq!(retained.coordinator.state("track"), Some("prelude.mp3"));
        assert_eq!(retained.coordinator.state("position-ms"), Some("92000"));
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
        assert_ne!(a.coordinator.state_map(), snap.coordinator.state_map());
        assert_ne!(a.coordinator.version(), snap.coordinator.version());
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let mut mgr = SnapshotManager::new(4);
        let snap = mgr.capture(&app());
        let bytes = to_bytes(&snap);
        assert_eq!(bytes.len(), snap.encoded_len());
        let back: Snapshot = mdagent_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn normalized_bytes_are_the_zero_sequence_encoding() {
        let mut mgr = SnapshotManager::new(4);
        let a = app();
        // Sequences on both sides of the one-byte varint boundary.
        for _ in 0..130 {
            let snap = mgr.capture(&a);
            let zeroed = Snapshot {
                sequence: 0,
                ..snap.clone()
            };
            let encoding = Encoding::of(&snap);
            assert_eq!(encoding.normalized, to_bytes(&zeroed));
            assert_eq!(encoding.digest, digest_of(&snap).as_u64());
            let retained = mgr.entry("player", snap.sequence).unwrap();
            assert_eq!(retained.encoded_len(), snap.encoded_len());
        }
    }

    #[test]
    fn delta_roundtrip_equals_full_snapshot() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        // Mutate a little state, as repeat migrations of a running app do.
        a.coordinator.set_state("position-ms", "184000");
        let next = mgr.capture(&a);

        let delta = delta(&mgr, &base, &next);
        let rebuilt = delta.apply(&base).unwrap();
        assert_eq!(rebuilt, next, "delta apply must reproduce the snapshot");
        assert_eq!(mgr.resolve(&delta), Some(next.clone()));
        assert!(
            delta.encoded_len() < next.encoded_len(),
            "small state change must encode smaller than the full snapshot: {} vs {}",
            delta.encoded_len(),
            next.encoded_len()
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
        let d1 = delta(&mgr, &base, &grown);
        assert_eq!(d1.apply(&base).unwrap(), grown);
        assert_eq!(mgr.resolve(&d1), Some(grown.clone()));

        a.coordinator.set_state("playlist", "x");
        let shrunk = mgr.capture(&a);
        let d2 = delta(&mgr, &grown, &shrunk);
        assert_eq!(d2.apply(&grown).unwrap(), shrunk);
        assert_eq!(mgr.resolve(&d2), Some(shrunk));
    }

    #[test]
    fn delta_rejects_wrong_base() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator.set_state("track", "fugue.mp3");
        let next = mgr.capture(&a);
        let delta = delta(&mgr, &base, &next);

        a.coordinator.set_state("track", "toccata.mp3");
        let diverged = mgr.capture(&a);
        assert!(matches!(
            delta.apply(&diverged),
            Err(WireError::ChecksumMismatch)
        ));
        let rebased = SnapshotDelta {
            base_sequence: diverged.sequence,
            ..delta
        };
        assert_eq!(mgr.resolve(&rebased), None);
    }

    #[test]
    fn delta_wire_roundtrip() {
        let mut mgr = SnapshotManager::new(4);
        let mut a = app();
        let base = mgr.capture(&a);
        a.coordinator.set_state("track", "fugue.mp3");
        let next = mgr.capture(&a);
        let delta = delta(&mgr, &base, &next);
        let bytes = to_bytes(&delta);
        assert_eq!(bytes.len(), delta.encoded_len());
        let back: SnapshotDelta = mdagent_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.apply(&base).unwrap(), next);
    }

    #[test]
    fn delta_needs_both_snapshots_retained() {
        let mut mgr = SnapshotManager::new(4);
        let base = mgr.capture(&app());
        assert!(mgr.delta("player", base.sequence, 999).is_none());
        assert!(mgr.delta("player", 999, base.sequence).is_none());
        assert!(mgr.delta("ghost", base.sequence, base.sequence).is_none());
    }

    #[test]
    fn snapshot_header_keeps_name_and_sequence_only() {
        let mut mgr = SnapshotManager::new(4);
        let snap = mgr.capture(&app());
        let header = snap.header();
        assert_eq!(header.app_name, snap.app_name);
        assert_eq!(header.sequence, snap.sequence);
        assert!(header.profile_bytes.is_empty());
        assert!(header.encoded_len() < snap.encoded_len());
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
        assert!(SnapshotManager::restore_by_move(&mut snap, &mut fresh).is_err());
    }
}
