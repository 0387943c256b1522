//! Session persistence for the dynamic matching subsystem.
//!
//! The paper's semi-streaming model assumes working memory far smaller than
//! the input; the out-of-core layer (`mwm-external`) delivers that for
//! *edges*, this crate delivers it for *sessions*. A [`SessionImage`] is a
//! versioned, checksummed binary serialization of a full
//! [`mwm_dynamic::DynamicMatcher`] session — base-graph parameters, the
//! overlay of live edges, the maintained matching, the last committed
//! [`mwm_lp::DualSnapshot`], and the epoch ledger — such that
//! `hibernate → revive` restores a session **bit-identical** to the
//! original: every subsequent epoch produces the same weight bits, matching
//! and duals as if the session had stayed resident.
//!
//! On top of the image sits a [`SessionStore`]: a directory of images plus a
//! small manifest and one write-ahead journal per session. Epoch batches are
//! journaled *after* they commit, so a crash between commits loses nothing:
//! recovery revives the last image and replays the journal tail, and a torn
//! trailing record (the crash frontier) is cleanly ignored while a corrupt
//! interior record surfaces as a typed [`PersistError::Corrupt`].
//!
//! All framing uses the shared length-prefixed codec of
//! [`mwm_graph::wire`], and all multi-byte integers are little-endian with
//! floats travelling as IEEE-754 bit patterns — the same validated-header
//! discipline as the out-of-core spill format.

pub mod codec;
pub mod image;
pub mod store;

use std::fmt;

pub use image::{SessionImage, IMAGE_MAGIC, IMAGE_VERSION};
pub use store::{SessionStore, WalRecord};

/// Typed persistence failures. Never panics: torn files, bad magic, bad
/// checksums and truncated payloads all decode into [`PersistError::Corrupt`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// An underlying filesystem operation failed (the formatted OS error is
    /// folded into the context so the error stays `Clone`).
    Io {
        /// What was being done, on which path, and the OS error text.
        context: String,
    },
    /// A file exists but its contents are not a valid image/journal/manifest.
    Corrupt {
        /// What failed validation and where.
        context: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context } => write!(f, "persistence I/O error: {context}"),
            PersistError::Corrupt { context } => write!(f, "corrupt persistence data: {context}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Wraps an I/O error with its operation context.
    pub fn io(context: impl fmt::Display, err: std::io::Error) -> Self {
        PersistError::Io { context: format!("{context}: {err}") }
    }

    /// A corruption finding.
    pub fn corrupt(context: impl Into<String>) -> Self {
        PersistError::Corrupt { context: context.into() }
    }
}

/// FNV-1a over a byte slice — the checksum of images, journals and manifests.
/// Stable by definition (no hasher randomization), cheap, and sensitive to
/// any single flipped bit, which is all a torn-write detector needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_bit_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a(b"session");
        let mut flipped = b"session".to_vec();
        flipped[3] ^= 1;
        assert_ne!(a, fnv1a(&flipped));
        assert_eq!(a, fnv1a(b"session"));
    }

    #[test]
    fn errors_display_their_context() {
        let e = PersistError::corrupt("image header: bad magic");
        assert!(format!("{e}").contains("bad magic"));
        let io = PersistError::io("writing image", std::io::Error::other("disk full"));
        assert!(format!("{io}").contains("disk full"));
    }
}
