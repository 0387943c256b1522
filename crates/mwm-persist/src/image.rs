//! The session image: a versioned, checksummed on-disk serialization of a
//! complete [`DynamicMatcher`] session.
//!
//! ```text
//! image     magic "MWMSESS1" (8) | version u32 | payload_len u64
//!           | checksum u64 (FNV-1a of payload) | payload
//! payload   encode_session_state(SessionState)   (see `codec`)
//! ```
//!
//! All integers little-endian. `open` validates magic, version, exact file
//! length and checksum before a single payload byte is decoded — the same
//! validated-header discipline as the out-of-core spill format — so torn and
//! tampered files surface as typed [`PersistError::Corrupt`] rather than
//! panics or garbage sessions. Writes go through a temp file + atomic rename,
//! so a crash mid-write can never leave a half-image under the real name.

use std::fs;
use std::io::Write;
use std::path::Path;

use mwm_dynamic::DynamicMatcher;

use crate::codec::{decode_session_state, encode_session_state, ByteReader, ByteWriter};
use crate::{fnv1a, PersistError};

/// Magic bytes opening every session image.
pub const IMAGE_MAGIC: &[u8; 8] = b"MWMSESS1";
/// Current image format version. Version 2 added the overlay journal base
/// and the sketch-bank fields. Version 3 dropped two fields nothing read: the
/// config's `dual_decay` and the ledger's `peak_machine_space`. Version 4
/// dropped the sketch bank with its five config fields and four ledger
/// columns. Version 5 dropped the config's worker count and audit cadence
/// and the ledger's audit column. Version 6 dropped the session's
/// bootstrapped flag, which always equalled "duals present". Version 7
/// stores the overlay as its next id plus `(id, edge)` pairs of the live
/// edges (no journal base, no liveness bits) and drops the config's two
/// policy thresholds. Version 8 drops the session's duals and their flag.
pub const IMAGE_VERSION: u32 = 8;

const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// A validated, immutable session image (the encoded payload plus its
/// checksum). Encoding and every decoding path are typed-fallible: a
/// session whose collections overflow the codec's `u32` count prefixes
/// surfaces as [`PersistError::Corrupt`] instead of a corrupt image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionImage {
    payload: Vec<u8>,
    checksum: u64,
}

impl SessionImage {
    /// Serializes a session into an image (`O(live graph + ledger)`).
    pub fn from_session(dm: &DynamicMatcher) -> Result<SessionImage, PersistError> {
        let mut w = ByteWriter::new();
        encode_session_state(&mut w, &dm.export_state())?;
        let payload = w.into_bytes();
        let checksum = fnv1a(&payload);
        Ok(SessionImage { payload, checksum })
    }

    /// Decodes and revalidates the image into a live session. The decoded
    /// state passes through `DynamicMatcher::import_state`, so structural
    /// *and* semantic corruption both surface as [`PersistError::Corrupt`].
    pub fn restore(&self) -> Result<DynamicMatcher, PersistError> {
        let mut r = ByteReader::new(&self.payload);
        let state = decode_session_state(&mut r)
            .map_err(|e| PersistError::corrupt(format!("image payload: {e}")))?;
        r.finish("session payload").map_err(|e| PersistError::corrupt(format!("image: {e}")))?;
        DynamicMatcher::import_state(state)
            .map_err(|e| PersistError::corrupt(format!("image state: {e}")))
    }

    /// FNV-1a checksum of the payload.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Encoded payload length in bytes (without the header).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The full on-disk byte representation (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        out.extend_from_slice(IMAGE_MAGIC);
        out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and fully validates an in-memory image: magic, version,
    /// declared vs actual length, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionImage, PersistError> {
        if bytes.len() < HEADER_BYTES {
            return Err(PersistError::corrupt(format!(
                "image of {} bytes is shorter than the {HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        if &bytes[0..8] != IMAGE_MAGIC {
            return Err(PersistError::corrupt("image header: bad magic"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != IMAGE_VERSION {
            return Err(PersistError::corrupt(format!(
                "image version {version} is not the supported version {IMAGE_VERSION}"
            )));
        }
        let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_BYTES..];
        if payload.len() != declared {
            return Err(PersistError::corrupt(format!(
                "image declares {declared} payload bytes but carries {}",
                payload.len()
            )));
        }
        let actual = fnv1a(payload);
        if actual != checksum {
            return Err(PersistError::corrupt(format!(
                "image checksum mismatch: header says {checksum:#018x}, payload hashes to \
                 {actual:#018x}"
            )));
        }
        Ok(SessionImage { payload: payload.to_vec(), checksum })
    }

    /// Writes the image to `path` atomically: a `.tmp` sibling is written,
    /// flushed and renamed over the destination, so readers never observe a
    /// partially written image under the real name.
    pub fn write(&self, path: &Path) -> Result<(), PersistError> {
        let tmp = path.with_extension("tmp");
        let ctx = |what: &str| format!("{what} {}", tmp.display());
        let mut f = fs::File::create(&tmp).map_err(|e| PersistError::io(ctx("creating"), e))?;
        f.write_all(&self.to_bytes()).map_err(|e| PersistError::io(ctx("writing"), e))?;
        f.sync_all().map_err(|e| PersistError::io(ctx("syncing"), e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| {
            PersistError::io(format!("renaming {} to {}", tmp.display(), path.display()), e)
        })
    }

    /// Reads and fully validates an image from `path`.
    pub fn open(path: &Path) -> Result<SessionImage, PersistError> {
        let bytes = fs::read(path)
            .map_err(|e| PersistError::io(format!("reading image {}", path.display()), e))?;
        SessionImage::from_bytes(&bytes).map_err(|e| match e {
            PersistError::Corrupt { context } => {
                PersistError::corrupt(format!("{}: {context}", path.display()))
            }
            io => io,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_core::ResourceBudget;
    use mwm_dynamic::DynamicConfig;
    use mwm_graph::{Graph, GraphUpdate};

    fn session() -> DynamicMatcher {
        let mut g = Graph::new(8);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(4, 5, 1.5);
        let mut dm = DynamicMatcher::new(&g, DynamicConfig::default()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        dm.apply_epoch(
            &[GraphUpdate::InsertEdge { u: 5, v: 6, w: 7.0 }, GraphUpdate::DeleteEdge { id: 1 }],
            &ResourceBudget::unlimited(),
        )
        .unwrap();
        dm
    }

    #[test]
    fn hibernate_revive_is_bit_identical() {
        let dm = session();
        let image = SessionImage::from_session(&dm).unwrap();
        let back = image.restore().unwrap();
        assert_eq!(back.weight().to_bits(), dm.weight().to_bits());
        assert_eq!(back.epochs(), dm.epochs());
        assert_eq!(back.overlay().version(), dm.overlay().version());
        // The image of the revived session is byte-identical: write→open→write
        // is a fixed point at the session level too.
        assert_eq!(SessionImage::from_session(&back).unwrap(), image);
    }

    #[test]
    fn a_matching_past_a_capacity_is_corrupt() {
        let mut state = session().export_state();
        state.matching[0].2 = 2;
        let mut w = ByteWriter::new();
        encode_session_state(&mut w, &state).unwrap();
        let payload = w.into_bytes();
        let image = SessionImage { checksum: fnv1a(&payload), payload };
        match image.restore() {
            Err(PersistError::Corrupt { context }) => {
                assert!(context.contains("capacity"), "{context}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|dm| dm.epochs())),
        }
    }

    #[test]
    fn files_round_trip_and_validate() {
        let dir = std::env::temp_dir().join(format!("mwm-image-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.img");
        let image = SessionImage::from_session(&session()).unwrap();
        image.write(&path).unwrap();
        assert_eq!(SessionImage::open(&path).unwrap(), image);

        // Truncation → Corrupt (declared length no longer matches).
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(SessionImage::open(&path), Err(PersistError::Corrupt { .. })));

        // A flipped payload bit → checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let err = SessionImage::open(&path).unwrap_err();
        assert!(format!("{err}").contains("checksum"), "got: {err}");

        // Bad magic → Corrupt.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(format!("{}", SessionImage::open(&path).unwrap_err()).contains("magic"));

        // An image of the previous format version → Corrupt, never a
        // misread payload.
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&(IMAGE_VERSION - 1).to_le_bytes());
        let err = SessionImage::from_bytes(&old).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt { .. }) && format!("{err}").contains("version")
        );

        // Unknown version → Corrupt.
        let mut vers = bytes;
        vers[8] = 99;
        fs::write(&path, &vers).unwrap();
        assert!(format!("{}", SessionImage::open(&path).unwrap_err()).contains("version"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let err = SessionImage::open(Path::new("/nonexistent/mwm/image.img")).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }));
    }
}
