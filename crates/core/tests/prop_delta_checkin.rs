//! Property tests of the checked delta check-in: resolving a snapshot
//! delta against the stored encodings deploys exactly what decoding it
//! would, refuses every corrupted delta, and decodes only when the target
//! is no longer retained.

use mdagent_core::{AppId, Application, Coordinator, SnapshotDelta, SnapshotManager};
use mdagent_simnet::HostId;
use proptest::prelude::*;

/// Value byte lengths around the 127/128 boundary, where a string's
/// length prefix grows from one varint byte to two.
const LENGTHS: [usize; 8] = [0, 1, 5, 126, 127, 128, 129, 300];

/// State entries as `(key, value length index, fill byte)`. Keys come from
/// a small space, so a base and a target share some keys, rewrite some,
/// and add or drop others.
fn entries() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..12, 0..LENGTHS.len(), 0u8..4), 0..10)
}

fn player(entries: &[(u8, usize, u8)]) -> Application {
    let mut app = Application::new(AppId(0), "player", HostId(0));
    app.coordinator = Coordinator::new();
    for &(key, len, fill) in entries {
        let value = char::from(b'a' + fill).to_string().repeat(LENGTHS[len]);
        app.coordinator.set_state(format!("k{key:02}"), value);
    }
    app
}

/// Every single-field corruption of `delta` the check must catch: the
/// prefix and suffix lengths, one middle byte, the base digest, and the
/// sequence redirected to another retained snapshot.
fn corruptions(delta: &SnapshotDelta, at: usize, other: u64) -> Vec<(&'static str, SnapshotDelta)> {
    let mut out = vec![
        (
            "prefix_len",
            SnapshotDelta {
                prefix_len: delta.prefix_len + 1,
                ..delta.clone()
            },
        ),
        (
            "suffix_len",
            SnapshotDelta {
                suffix_len: delta.suffix_len + 1,
                ..delta.clone()
            },
        ),
        (
            "base_digest",
            SnapshotDelta {
                base_digest: delta.base_digest ^ 1,
                ..delta.clone()
            },
        ),
        (
            "sequence",
            SnapshotDelta {
                sequence: other,
                ..delta.clone()
            },
        ),
    ];
    if !delta.middle.is_empty() {
        let mut middle = delta.middle.clone();
        let flipped = at % middle.len();
        middle[flipped] ^= 0x5A;
        out.push((
            "middle",
            SnapshotDelta {
                middle,
                ..delta.clone()
            },
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn checked_checkin_deploys_what_decoding_would(
        base_entries in entries(),
        target_entries in entries(),
        identical in 0u8..4,
        at in 0usize..1024,
    ) {
        // One case in four keeps the state as it was.
        let target_entries = if identical == 0 { base_entries.clone() } else { target_entries };
        let mut other_entries = target_entries.clone();
        other_entries.push((99, 1, 0));

        let mut sender = SnapshotManager::new(8);
        let base = sender.capture(&player(&base_entries));
        let target = sender.capture(&player(&target_entries));
        let other = sender.capture(&player(&other_entries));
        let (delta, full_len) = sender
            .delta("player", base.sequence, target.sequence)
            .unwrap();
        prop_assert_eq!(full_len, mdagent_wire::to_bytes(&target).len());

        let decoded = delta.apply(&base).unwrap();
        prop_assert_eq!(&decoded, &target);
        prop_assert_eq!(sender.resolve(&delta), Some(decoded.clone()));
        for (field, corrupt) in corruptions(&delta, at, other.sequence) {
            prop_assert!(
                sender.resolve(&corrupt).is_none(),
                "a corrupted {} passed the check", field
            );
        }

        // A destination that holds the base but no longer the target
        // falls back to decoding: it resolves exactly what `apply` does.
        let mut receiver = SnapshotManager::new(8);
        let held = receiver.capture(&player(&base_entries));
        prop_assert_eq!(&held, &base);
        prop_assert!(receiver.by_sequence("player", target.sequence).is_none());
        prop_assert_eq!(receiver.resolve(&delta), Some(decoded));
        for (_, corrupt) in corruptions(&delta, at, other.sequence) {
            prop_assert_eq!(receiver.resolve(&corrupt), corrupt.apply(&base).ok());
        }
    }
}
