//! Property tests: every encodable value decodes back to itself, and
//! `encoded_len` always tells the truth.

use std::collections::{BTreeMap, HashMap};

use mdagent_wire::{from_bytes, to_bytes, Blob, Wire};
use proptest::prelude::*;

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    assert_eq!(bytes.len(), value.encoded_len(), "encoded_len lied");
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(&back, value);
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
