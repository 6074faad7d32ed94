//! Content digests over wire encodings.
//!
//! The migration data path dedupes component payloads by content: a
//! destination that already holds a component (from provisioning, a prior
//! visit, or a semantic match advertised through the registry) should not
//! pay to receive it again. The wrap phase therefore ships [`Digest`]s
//! first and elides any component the receiver can prove it has.
//!
//! The digest is a 64-bit FxHash (the multiply-rotate hash used by rustc)
//! folded over the value's exact [`Wire`] encoding. It is *not*
//! cryptographic — the simulation trusts its own hosts — but it is
//! deterministic across runs and platforms, which is what replayable
//! scenarios require.

use bytes::BytesMut;

use crate::error::WireError;
use crate::reader::Reader;
use crate::wire::Wire;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// A 64-bit content digest of a value's wire encoding.
///
/// Equal values (which always encode to equal bytes — map keys are sorted)
/// produce equal digests; distinct values collide only with ordinary
/// 64-bit hash probability, which the simulation treats as never.
///
/// # Examples
///
/// ```
/// use mdagent_wire::{digest_of, Digest};
///
/// let a = digest_of(&("codec".to_string(), 180_000u64));
/// let b = digest_of(&("codec".to_string(), 180_000u64));
/// let c = digest_of(&("codec".to_string(), 180_001u64));
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl Digest {
    /// Digest of a raw byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut hash = 0u64;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            hash = fx_add(hash, u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // Zero-padded little-endian word of the (under 8) tail bytes.
            let mut word = [0u8; 8];
            for (slot, byte) in word.iter_mut().zip(tail) {
                *slot = *byte;
            }
            hash = fx_add(hash, u64::from_le_bytes(word));
        }
        // Fold in the length so `[0]` and `[0, 0]` differ.
        Digest(fx_add(hash, bytes.len() as u64))
    }

    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl Wire for Digest {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Digest(u64::decode(reader)?))
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Digests a value's exact wire encoding.
///
/// This is the canonical content address used by the migration cache and
/// the registry's digest advertisements.
pub fn digest_of<T: Wire>(value: &T) -> Digest {
    let mut buf = BytesMut::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    Digest::of_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_a_digest() {
        let a = digest_of(&vec![1u32, 2, 3]);
        let b = digest_of(&vec![1u32, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn length_is_part_of_the_digest() {
        assert_ne!(Digest::of_bytes(&[0]), Digest::of_bytes(&[0, 0]));
        assert_ne!(Digest::of_bytes(b""), Digest::of_bytes(&[0]));
    }

    #[test]
    fn tail_bytes_are_hashed() {
        // Differ only in the 9th byte (the non-aligned tail).
        let a = Digest::of_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = Digest::of_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_roundtrips_on_the_wire() {
        let d = digest_of(&String::from("player-ui"));
        let back: Digest = crate::from_bytes(&crate::to_bytes(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // Pin the value so an accidental algorithm change is caught: the
        // registry persists advertised digests across sessions in spirit.
        let d = Digest::of_bytes(b"mdagent");
        assert_eq!(d, Digest::of_bytes(b"mdagent"));
        assert_eq!(format!("{d}").len(), 16);
        // Tail only, whole words only, and a word plus a tail.
        assert_eq!(d.as_u64(), 0x3956_8e9e_45d7_0d07);
        assert_eq!(
            Digest::of_bytes(b"12345678").as_u64(),
            0x2261_345a_c88e_cb59
        );
        assert_eq!(
            Digest::of_bytes(b"mdagent-wire").as_u64(),
            0xbdca_c0bb_a957_39d9
        );
    }
}
