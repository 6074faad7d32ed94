//! The [`Wire`] trait and implementations for standard types.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};

use crate::error::WireError;
use crate::reader::Reader;

/// Compact, deterministic binary encoding.
///
/// MDAgent ships application components and agent state between hosts; the
/// simulated migration cost is a direct function of the encoded byte count,
/// so the encoding must expose [`encoded_len`](Wire::encoded_len) exactly.
///
/// Integers use LEB128 varints (signed types are zig-zag encoded); strings,
/// vectors and maps are length-prefixed; map entries are sorted by encoded
/// key so equal values always encode to equal bytes.
///
/// # Examples
///
/// ```
/// use mdagent_wire::{Wire, to_bytes, from_bytes};
///
/// let value: (String, Vec<u32>) = ("playlist".into(), vec![1, 2, 3]);
/// let bytes = to_bytes(&value);
/// assert_eq!(bytes.len(), value.encoded_len());
/// let back: (String, Vec<u32>) = from_bytes(&bytes)?;
/// assert_eq!(back, value);
/// # Ok::<(), mdagent_wire::WireError>(())
/// ```
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value from the cursor.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, corrupt or ill-typed input.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Exact number of bytes [`encode`](Wire::encode) will append.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Encodes a value into a fresh byte vector.
///
/// The buffer is sized up front from [`Wire::encoded_len`], so encoding is
/// a single pass with no reallocation even for multi-megabyte payloads,
/// and the finished buffer is handed over without a copy.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf.freeze()
}

/// Decodes a value from a byte slice, requiring full consumption.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or trailing bytes.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    if !reader.is_exhausted() {
        return Err(WireError::UnexpectedEnd {
            needed: 0,
            remaining: reader.remaining(),
        });
    }
    Ok(value)
}

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

pub(crate) fn varint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    bits.max(1).div_ceil(7).max(1)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

macro_rules! wire_unsigned {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, u64::from(*self));
            }
            fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                let raw = reader.take_varint()?;
                <$ty>::try_from(raw).map_err(|_| WireError::LengthOverflow { declared: raw })
            }
            fn encoded_len(&self) -> usize {
                varint_len(u64::from(*self))
            }
        }
    )*};
}

wire_unsigned!(u8, u16, u32, u64);

macro_rules! wire_signed {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, zigzag(i64::from(*self)));
            }
            fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                let raw = unzigzag(reader.take_varint()?);
                <$ty>::try_from(raw).map_err(|_| WireError::LengthOverflow {
                    declared: raw.unsigned_abs(),
                })
            }
            fn encoded_len(&self) -> usize {
                varint_len(zigzag(i64::from(*self)))
            }
        }
    )*};
}

wire_signed!(i8, i16, i32, i64);

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self as u64);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = reader.take_varint()?;
        usize::try_from(raw).map_err(|_| WireError::LengthOverflow { declared: raw })
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidBool(other)),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.to_bits());
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = reader.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for f32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.to_bits());
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = reader.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(f32::from_bits(u32::from_le_bytes(arr)))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

/// A shared string: exactly the bytes of a `String` with the same text, so
/// either type decodes the other's encoding. Cloning shares the text.
impl Wire for Rc<str> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let bytes = reader.take(len)?;
        std::str::from_utf8(bytes)
            .map(Rc::from)
            .map_err(|_| WireError::InvalidUtf8)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(reader)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            other => Err(WireError::InvalidTag {
                tag: u32::from(other),
                type_name: "Option",
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(reader).map(Box::new)
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// A shared value: exactly the bytes of the value itself. Cloning shares
/// it; decoding yields a fresh, unshared one.
impl<T: Wire> Wire for Rc<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(reader).map(Rc::new)
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<K, V> Wire for BTreeMap<K, V>
where
    K: Wire + Ord,
    V: Wire,
{
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(reader)?;
            let v = V::decode(reader)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        map_encoded_len(self.len(), self.iter())
    }
}

/// Exact encoded size of a map: the entry count, then every key and value.
/// Order does not matter to a sum, so a hash map needs no sort here.
fn map_encoded_len<'a, K: Wire + 'a, V: Wire + 'a>(
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> usize {
    varint_len(len as u64)
        + entries
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum::<usize>()
}

// Generic over the hasher so deterministic maps (e.g. `FxHashMap`)
// round-trip without converting through the default-`RandomState` type.
impl<K, V, S> Wire for HashMap<K, V, S>
where
    K: Wire + Eq + Hash + Ord,
    V: Wire,
    S: std::hash::BuildHasher + Default,
{
    fn encode(&self, buf: &mut BytesMut) {
        // Sort by key so equal maps encode identically.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        put_varint(buf, entries.len() as u64);
        for (k, v) in entries {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut out = HashMap::with_capacity_and_hasher(len.min(1024), S::default());
        for _ in 0..len {
            let k = K::decode(reader)?;
            let v = V::decode(reader)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        map_encoded_len(self.len(), self.iter())
    }
}

impl<T: Wire + Ord> Wire for std::collections::BTreeSet<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(reader)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for std::collections::VecDeque<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut out = std::collections::VecDeque::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push_back(T::decode(reader)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for char {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(u32::from(*self)));
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = reader.take_varint()?;
        u32::try_from(raw)
            .ok()
            .and_then(char::from_u32)
            .ok_or(WireError::LengthOverflow { declared: raw })
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(u32::from(*self)))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(reader)?, B::decode(reader)?, C::decode(reader)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

/// A raw byte payload with a compact length-prefixed encoding.
///
/// `Vec<u8>` encodes each byte as a varint through the generic `Vec<T>`
/// impl; `Blob` stores bytes verbatim, which is what application data files
/// (music, slides) want. The bytes are immutable and reference-counted, so
/// cloning a blob shares its buffer instead of copying it.
///
/// # Examples
///
/// ```
/// use mdagent_wire::{Blob, Wire};
///
/// let blob = Blob::zeroed(1024);
/// assert_eq!(blob.encoded_len(), 1024 + 2); // payload + 2-byte varint prefix
/// let copy = blob.clone();
/// assert_eq!(copy.as_slice().as_ptr(), blob.as_slice().as_ptr());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Blob(Arc<Vec<u8>>);

impl Blob {
    /// Creates a blob of `len` zero bytes, handy for synthetic data files.
    pub fn zeroed(len: usize) -> Self {
        Blob::from(vec![0; len])
    }

    /// Byte length of the payload.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Self {
        Blob(Arc::new(v))
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Wire for Blob {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.0.len() as u64);
        buf.put_slice(&self.0);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        Ok(Blob::from(reader.take(len)?.to_vec()))
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.0.len() as u64) + self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(bytes.len(), value.encoded_len(), "encoded_len mismatch");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(300u32);
        roundtrip(u64::MAX);
        roundtrip(-1i32);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(-0.25f32);
        roundtrip(42usize);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("hello pervasive world"));
        roundtrip(String::new());
        roundtrip(Rc::<str>::from("shared ∞ text"));
        roundtrip(Rc::<str>::from(""));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(7u8));
        roundtrip(Option::<u8>::None);
        roundtrip(Box::new(9u16));
        roundtrip(Rc::new(vec![4u16, 5]));
        roundtrip(("key".to_string(), 5u32));
        roundtrip(("a".to_string(), 1u8, true));
        roundtrip(Blob::from(vec![9, 8, 7]));
        let mut map = HashMap::new();
        map.insert("b".to_string(), 2u32);
        map.insert("a".to_string(), 1u32);
        roundtrip(map);
        let mut bmap = BTreeMap::new();
        bmap.insert(1u8, "x".to_string());
        roundtrip(bmap);
    }

    #[test]
    fn extra_container_roundtrips() {
        let set: std::collections::BTreeSet<u32> = [3, 1, 2].into_iter().collect();
        roundtrip(set);
        roundtrip(std::collections::BTreeSet::<String>::new());
        let deque: std::collections::VecDeque<i16> = [-1, 0, 1].into_iter().collect();
        roundtrip(deque);
        roundtrip('a');
        roundtrip('∞');
        roundtrip('\u{10FFFF}');
    }

    #[test]
    fn invalid_char_scalar_rejected() {
        // 0xD800 is a surrogate, not a char.
        let bytes = to_bytes(&0xD800u32);
        let res: Result<char, _> = from_bytes(&bytes);
        assert!(res.is_err());
    }

    #[test]
    fn hashmap_encoding_is_deterministic() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u32 {
            a.insert(i, i * 2);
        }
        for i in (0..64u32).rev() {
            b.insert(i, i * 2);
        }
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn narrowing_decode_fails_loudly() {
        let bytes = to_bytes(&300u32);
        let res: Result<u8, _> = from_bytes(&bytes);
        assert!(matches!(res, Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u8);
        bytes.push(0xFF);
        let res: Result<u8, _> = from_bytes(&bytes);
        assert!(res.is_err());
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let res: Result<bool, _> = from_bytes(&[2]);
        assert_eq!(res, Err(WireError::InvalidBool(2)));
        let res: Result<Option<u8>, _> = from_bytes(&[9, 0]);
        assert!(matches!(res, Err(WireError::InvalidTag { .. })));
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let bytes = to_bytes(&f64::NAN);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn blob_is_byte_exact() {
        let blob = Blob::zeroed(200);
        assert_eq!(blob.encoded_len(), 202);
        assert!(!blob.is_empty());
        assert_eq!(Blob::default().len(), 0);
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "varint_len({v})");
        }
    }
}
