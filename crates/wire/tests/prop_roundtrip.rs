//! Property tests: every encodable value decodes back to itself, and
//! `encoded_len` always tells the truth.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use mdagent_wire::{from_bytes, to_bytes, Blob, Wire, WireError};
use proptest::prelude::*;

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    assert_eq!(bytes.len(), value.encoded_len(), "encoded_len lied");
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(&back, value);
}

/// A coordinator's state map as it was, and as it is now: one shared map
/// of shared strings.
type OwnedMap = BTreeMap<String, String>;
type SharedMap = Rc<BTreeMap<Rc<str>, Rc<str>>>;

/// Byte lengths of generated keys and values: empty, short, and both sides
/// of the one-byte varint boundary at 127/128.
const TEXT_LENS: [usize; 8] = [0, 1, 7, 126, 127, 128, 129, 300];

/// Text of exactly `len` bytes mixing ASCII with two-, three- and
/// four-byte characters, drawn from `seed`.
fn text(len: usize, mut seed: u64) -> String {
    const CHARS: [char; 6] = ['a', 'Z', '7', 'é', '∞', '🎵'];
    let mut out = String::with_capacity(len);
    while out.len() < len {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let c = CHARS[(seed >> 33) as usize % CHARS.len()];
        // Pad with ASCII where a wide character would overshoot.
        let fits = out.len() + c.len_utf8() <= len;
        out.push(if fits { c } else { 'a' });
    }
    out
}

fn state_maps() -> impl Strategy<Value = OwnedMap> {
    let entry = (0..TEXT_LENS.len(), 0..TEXT_LENS.len(), any::<u64>());
    proptest::collection::vec(entry, 0..81).prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (k, v, seed))| {
                // A two-digit index ends every key of two bytes or more, so
                // the map keeps nearly every entry.
                let key = match TEXT_LENS[k].checked_sub(2) {
                    Some(len) => format!("{}{i:02}", text(len, seed)),
                    None => text(TEXT_LENS[k], seed),
                };
                (key, text(TEXT_LENS[v], seed.rotate_left(17)))
            })
            .collect()
    })
}

fn shared(map: &OwnedMap) -> SharedMap {
    Rc::new(
        map.iter()
            .map(|(k, v)| (Rc::from(k.as_str()), Rc::from(v.as_str())))
            .collect(),
    )
}

/// Decodes `bytes` as both map types; the results must agree entry for
/// entry, or fail with the same error.
fn assert_decode_alike(bytes: &[u8]) {
    let owned = from_bytes::<OwnedMap>(bytes);
    let as_shared = from_bytes::<SharedMap>(bytes);
    assert_eq!(owned.map(|m| shared(&m)), as_shared);
}

/// The shared map is wire-identical to the owned one: same bytes, same
/// `encoded_len`, each decodes the other's encoding, and malformed input
/// fails the same way.
fn assert_wire_identical(map: &OwnedMap) {
    let shared_map = shared(map);
    let bytes = to_bytes(map);
    assert_eq!(to_bytes(&shared_map), bytes);
    assert_eq!(shared_map.encoded_len(), map.encoded_len());
    assert_eq!(from_bytes::<SharedMap>(&bytes).as_ref(), Ok(&shared_map));
    assert_eq!(
        from_bytes::<OwnedMap>(&to_bytes(&shared_map)).as_ref(),
        Ok(map)
    );
    // Truncated input, at eight cuts spread over the encoding.
    for k in 0..8 {
        assert_decode_alike(&bytes[..bytes.len() * k / 8]);
    }
    // 0xFF never occurs in UTF-8: inside text it is invalid UTF-8, inside
    // a length prefix it misframes the rest.
    for k in 0..8 {
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() * k / 8] = 0xFF;
        assert_decode_alike(&corrupt);
    }
    if let Some(key) = map.keys().find(|k| !k.is_empty()) {
        let mut corrupt = to_bytes(&BTreeMap::from([(key.clone(), String::new())]));
        let first_text_byte = 1 + key.len().encoded_len();
        corrupt[first_text_byte] = 0xFF;
        assert_eq!(
            from_bytes::<OwnedMap>(&corrupt),
            Err(WireError::InvalidUtf8)
        );
        assert_decode_alike(&corrupt);
    }
}

#[test]
fn empty_state_map_is_wire_identical() {
    assert_wire_identical(&OwnedMap::new());
}

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn i64_roundtrip(v in any::<i64>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn string_roundtrip(v in ".*") {
        assert_roundtrip(&v.to_string());
    }

    #[test]
    fn vec_of_pairs_roundtrip(v in proptest::collection::vec((any::<u32>(), ".{0,16}"), 0..32)) {
        let v: Vec<(u32, String)> = v.into_iter().map(|(a, b)| (a, b.to_string())).collect();
        assert_roundtrip(&v);
    }

    #[test]
    fn hashmap_roundtrip(v in proptest::collection::hash_map(any::<u16>(), any::<i32>(), 0..32)) {
        let v: HashMap<u16, i32> = v;
        assert_roundtrip(&v);
    }

    #[test]
    fn btreemap_roundtrip(v in proptest::collection::vec((".{0,16}", ".{0,64}"), 0..32)) {
        // String -> String: the shape of a coordinator's state map.
        let v: BTreeMap<String, String> =
            v.into_iter().map(|(k, s)| (k.to_string(), s.to_string())).collect();
        assert_roundtrip(&v);
    }

    #[test]
    fn shared_state_map_is_wire_identical(map in state_maps()) {
        assert_wire_identical(&map);
    }

    #[test]
    fn shared_str_decodes_as_string_does(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let owned = from_bytes::<String>(&bytes);
        prop_assert_eq!(owned.map(Rc::<str>::from), from_bytes::<Rc<str>>(&bytes));
    }

    #[test]
    fn option_roundtrip(v in proptest::option::of(any::<u32>())) {
        assert_roundtrip(&v);
    }

    #[test]
    fn blob_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_roundtrip(&Blob::from(v));
    }

    #[test]
    fn f64_roundtrip_bits(v in any::<f64>()) {
        let bytes = to_bytes(&v);
        let back: f64 = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Any of these may fail, but none may panic.
        let _ = from_bytes::<u64>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = from_bytes::<Vec<u32>>(&bytes);
        let _ = from_bytes::<Option<Blob>>(&bytes);
    }
}
