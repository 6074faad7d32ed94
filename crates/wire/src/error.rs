//! Decoding errors.

use std::fmt;

/// Error produced while decoding a wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd {
        /// Bytes that were needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum discriminant or tag byte was not recognised.
    InvalidTag {
        /// The offending tag.
        tag: u32,
        /// The type being decoded.
        type_name: &'static str,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
    /// A payload did not match the digest it was checked against: a
    /// snapshot delta applied to a base other than the one it was computed
    /// from.
    ChecksumMismatch,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::InvalidTag { tag, type_name } => {
                write!(f, "invalid tag {tag} while decoding {type_name}")
            }
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds sanity limit")
            }
            WireError::ChecksumMismatch => write!(f, "payload does not match its expected digest"),
            WireError::InvalidBool(b) => write!(f, "invalid boolean byte {b}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::UnexpectedEnd {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::InvalidUtf8.to_string().contains("utf-8"));
        assert!(WireError::InvalidBool(7).to_string().contains('7'));
    }
}
