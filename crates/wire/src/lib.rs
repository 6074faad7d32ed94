//! # mdagent-wire — serialization with exact size accounting
//!
//! Mobile agents wrap application components and carry them across the
//! network; the paper's migration cost is dominated by how many bytes the
//! agent ships. This crate provides the deterministic binary encoding those
//! payloads use:
//!
//! * [`Wire`] — encode/decode/`encoded_len` (exact, ahead of time).
//! * [`impl_wire_struct!`] / [`impl_wire_enum!`] — impl-writing macros.
//! * [`Blob`] — verbatim byte payloads (music files, slide decks).
//! * [`digest_of`] — the stable content digest that the data path's
//!   component cache and delta shipping key on.
//!
//! Links carry these encodings unframed: the simulated network loses a
//! transfer whole (see `FaultInjector`) and never flips a byte, so no
//! checksum framing sits between the platform and the wire.
//!
//! A custom format (rather than `serde`) is used because the offline crate
//! set has no serde *format* crate, and because byte-exact size accounting
//! is load-bearing for the reproduction (see `DESIGN.md` §5).
//!
//! # Examples
//!
//! ```
//! use mdagent_wire::{to_bytes, from_bytes, Wire};
//!
//! let snapshot = (String::from("track-3"), 42_000u64);
//! let bytes = to_bytes(&snapshot);
//! assert_eq!(bytes.len(), snapshot.encoded_len());
//! let restored: (String, u64) = from_bytes(&bytes)?;
//! assert_eq!(restored, snapshot);
//! # Ok::<(), mdagent_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod error;
mod macros;
mod reader;
mod wire;

pub use bytes;

pub use digest::{digest_of, Digest};
pub use error::WireError;
pub use reader::{Reader, MAX_DECLARED_LEN};
pub use wire::{from_bytes, to_bytes, Blob, Wire};
