//! A directory of session images with a manifest and per-session write-ahead
//! journals.
//!
//! ```text
//! <dir>/manifest.bin    magic "MWMMANI1" | version u32 | payload_len u64
//!                       | checksum u64 | count u32 | (name str, stem str)×
//! <dir>/<stem>.img      a `SessionImage` (see `image`)
//! <dir>/<stem>.wal      magic "MWMWAL01" | frame× (shared frame codec)
//! wal frame payload     tag u8 = 1 | epoch u64 | updates
//!                       (tag 2, a journal compaction, is retired)
//! ```
//!
//! **Journal discipline.** A batch record is appended only *after* its epoch
//! committed in memory; hibernating a session checkpoints it (fresh image,
//! journal deleted). Recovery therefore revives the last image and replays
//! the journal tail; records whose epoch the image already contains are
//! skipped, so a crash *between* writing the image and truncating the journal
//! is harmless. A torn trailing frame is the crash frontier and is ignored;
//! a corrupt interior record (bad tag, truncated fields inside a complete
//! frame) is a real integrity failure and surfaces as
//! [`PersistError::Corrupt`].

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use mwm_core::ResourceBudget;
use mwm_dynamic::DynamicMatcher;
use mwm_graph::{read_frame, write_frame, GraphUpdate};

use crate::codec::{self, decode_updates, encode_updates, ByteReader, ByteWriter};
use crate::image::SessionImage;
use crate::{fnv1a, PersistError};

/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"MWMMANI1";
/// Magic bytes opening every write-ahead journal.
pub const WAL_MAGIC: &[u8; 8] = b"MWMWAL01";

const MANIFEST_VERSION: u32 = 1;
const WAL_TAG_BATCH: u8 = 1;

/// One record of a session's write-ahead journal.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An epoch batch that committed: the epoch index it committed *as*
    /// (`DynamicMatcher::epochs()` before the batch) plus the exact updates.
    Batch {
        /// The committed epoch's index.
        epoch: u64,
        /// The batch, verbatim.
        updates: Vec<GraphUpdate>,
    },
}

fn encode_wal_record(rec: &WalRecord) -> Result<Vec<u8>, PersistError> {
    let WalRecord::Batch { epoch, updates } = rec;
    let mut w = ByteWriter::new();
    w.u8(WAL_TAG_BATCH);
    w.u64(*epoch);
    encode_updates(&mut w, updates)?;
    Ok(w.into_bytes())
}

fn decode_wal_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = ByteReader::new(payload);
    let rec = match r.u8("wal tag")? {
        WAL_TAG_BATCH => {
            WalRecord::Batch { epoch: r.u64("wal epoch")?, updates: decode_updates(&mut r)? }
        }
        tag => return Err(format!("unknown wal record tag {tag}")),
    };
    r.finish("wal record")?;
    Ok(rec)
}

/// A directory-backed store of hibernated sessions.
///
/// Not internally synchronized: the serving layer wraps it in its own lock.
/// Per-session files are only ever touched through the manifest, so two
/// stores on different directories never interfere.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    /// name → file stem. BTreeMap so `names()` is deterministic.
    manifest: BTreeMap<String, String>,
}

impl SessionStore {
    /// Opens (creating if needed) a store at `dir` and loads its manifest.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io(format!("creating store dir {}", dir.display()), e))?;
        let mut store = SessionStore { dir, manifest: BTreeMap::new() };
        store.load_manifest()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All stored session names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.manifest.keys().cloned().collect()
    }

    /// True if `name` has a stored image.
    pub fn contains(&self, name: &str) -> bool {
        self.manifest.contains_key(name)
    }

    /// Number of stored sessions.
    pub fn len(&self) -> usize {
        self.manifest.len()
    }

    /// True if the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.manifest.is_empty()
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.bin")
    }

    fn image_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.img"))
    }

    fn wal_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.wal"))
    }

    fn stem_of(&self, name: &str) -> Result<&str, PersistError> {
        self.manifest
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| PersistError::corrupt(format!("session {name:?} is not in the store")))
    }

    /// Assigns a fresh file stem for `name`: the FNV-1a of the name in hex,
    /// suffixed on (astronomically unlikely) collision with another name.
    fn assign_stem(&self, name: &str) -> String {
        let base = format!("s{:016x}", fnv1a(name.as_bytes()));
        let taken: std::collections::BTreeSet<&String> = self.manifest.values().collect();
        if !taken.contains(&base) {
            return base;
        }
        (1u32..)
            .map(|i| format!("{base}-{i}"))
            .find(|c| !taken.contains(c))
            .expect("unbounded suffix search terminates")
    }

    fn load_manifest(&mut self) -> Result<(), PersistError> {
        let path = self.manifest_path();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => {
                return Err(PersistError::io(format!("reading manifest {}", path.display()), e))
            }
        };
        let corrupt =
            |what: String| PersistError::corrupt(format!("manifest {}: {what}", path.display()));
        if bytes.len() < 28 {
            return Err(corrupt(format!("{} bytes is shorter than the header", bytes.len())));
        }
        if &bytes[0..8] != MANIFEST_MAGIC {
            return Err(corrupt("bad magic".to_string()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload = &bytes[28..];
        if payload.len() != declared {
            return Err(corrupt(format!(
                "declares {declared} payload bytes but carries {}",
                payload.len()
            )));
        }
        if fnv1a(payload) != checksum {
            return Err(corrupt("checksum mismatch".to_string()));
        }
        let mut r = ByteReader::new(payload);
        let count = r.u32("manifest count").map_err(corrupt)?;
        let mut manifest = BTreeMap::new();
        for _ in 0..count {
            let name = r.str("manifest name").map_err(corrupt)?.to_string();
            let stem = r.str("manifest stem").map_err(corrupt)?.to_string();
            manifest.insert(name, stem);
        }
        r.finish("manifest").map_err(corrupt)?;
        self.manifest = manifest;
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), PersistError> {
        let mut w = ByteWriter::new();
        w.u32(codec::u32_len(self.manifest.len(), "manifest entries")?);
        for (name, stem) in &self.manifest {
            w.str(name)?;
            w.str(stem)?;
        }
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);

        let path = self.manifest_path();
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &out)
            .map_err(|e| PersistError::io(format!("writing manifest {}", tmp.display()), e))?;
        fs::rename(&tmp, &path)
            .map_err(|e| PersistError::io(format!("renaming manifest into {}", path.display()), e))
    }

    /// Saves (creating or checkpointing) `name`: a fresh image is written
    /// atomically and the journal is deleted — the image now *is* the state.
    pub fn save(&mut self, name: &str, dm: &DynamicMatcher) -> Result<(), PersistError> {
        let stem = match self.manifest.get(name) {
            Some(stem) => stem.clone(),
            None => {
                let stem = self.assign_stem(name);
                self.manifest.insert(name.to_string(), stem.clone());
                self.write_manifest()?;
                stem
            }
        };
        SessionImage::from_session(dm)?.write(&self.image_path(&stem))?;
        // An absent journal is the common case; removal failure only means a
        // few already-applied records get skipped on the next load.
        fs::remove_file(self.wal_path(&stem)).ok();
        Ok(())
    }

    /// Appends one committed record to `name`'s journal (creating the
    /// journal with its header on first use).
    pub fn append(&self, name: &str, record: &WalRecord) -> Result<(), PersistError> {
        let stem = self.stem_of(name)?;
        let path = self.wal_path(stem);
        let ctx = |what: &str| format!("{what} journal {}", path.display());
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::io(ctx("opening"), e))?;
        let fresh = f.metadata().map_err(|e| PersistError::io(ctx("inspecting"), e))?.len() == 0;
        let mut buf = Vec::new();
        if fresh {
            buf.extend_from_slice(WAL_MAGIC);
        }
        // The frame cap guards the record size too: an oversized batch is a
        // typed error here, never a truncated length header on disk.
        write_frame(&mut buf, &encode_wal_record(record)?)
            .map_err(|e| PersistError::io(ctx("framing record for"), e))?;
        f.write_all(&buf).map_err(|e| PersistError::io(ctx("appending to"), e))?;
        f.flush().map_err(|e| PersistError::io(ctx("flushing"), e))
    }

    /// Reads `name`'s journal records. A missing or header-torn journal is
    /// empty; a torn trailing frame (the crash frontier) ends the record
    /// list silently; corrupt interior records are typed errors.
    pub fn journal(&self, name: &str) -> Result<Vec<WalRecord>, PersistError> {
        let stem = self.stem_of(name)?;
        let path = self.wal_path(stem);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(PersistError::io(format!("reading journal {}", path.display()), e))
            }
        };
        if bytes.len() < WAL_MAGIC.len() {
            // A crash while creating the journal: no complete record exists.
            return Ok(Vec::new());
        }
        if &bytes[0..8] != WAL_MAGIC {
            return Err(PersistError::corrupt(format!("journal {}: bad magic", path.display())));
        }
        let mut records = Vec::new();
        let mut r = &bytes[8..];
        loop {
            match read_frame(&mut r) {
                Ok(Some(payload)) => {
                    let rec = decode_wal_record(&payload).map_err(|e| {
                        PersistError::corrupt(format!("journal {}: {e}", path.display()))
                    })?;
                    records.push(rec);
                }
                Ok(None) => break,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break, // crash tail
                Err(e) => {
                    return Err(PersistError::corrupt(format!("journal {}: {e}", path.display())))
                }
            }
        }
        Ok(records)
    }

    /// Loads `name`: revives the image and replays the journal tail. Returns
    /// the session plus how many journal records were actually replayed
    /// (records the image already contains are skipped — see the module doc).
    pub fn load(&self, name: &str) -> Result<(DynamicMatcher, usize), PersistError> {
        let stem = self.stem_of(name)?;
        let image = SessionImage::open(&self.image_path(stem))?;
        let mut dm = image.restore()?;
        let mut replayed = 0usize;
        for WalRecord::Batch { epoch, updates } in self.journal(name)? {
            let current = dm.epochs() as u64;
            if epoch < current {
                continue; // already inside the image
            }
            if epoch > current {
                return Err(PersistError::corrupt(format!(
                    "journal of {name:?} jumps to epoch {epoch} while the session is at {current}"
                )));
            }
            dm.apply_epoch(&updates, &ResourceBudget::unlimited()).map_err(|e| {
                PersistError::corrupt(format!("replaying epoch {epoch} of {name:?}: {e}"))
            })?;
            replayed += 1;
        }
        Ok((dm, replayed))
    }

    /// Removes `name` and its files from the store.
    pub fn remove(&mut self, name: &str) -> Result<(), PersistError> {
        let Some(stem) = self.manifest.remove(name) else {
            return Ok(());
        };
        self.write_manifest()?;
        fs::remove_file(self.image_path(&stem)).ok();
        fs::remove_file(self.wal_path(&stem)).ok();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_dynamic::DynamicConfig;
    use mwm_graph::Graph;

    fn temp_store(tag: &str) -> SessionStore {
        let dir = std::env::temp_dir().join(format!("mwm-store-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        SessionStore::open(dir).unwrap()
    }

    fn session(seed: f64) -> DynamicMatcher {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0 + seed);
        g.add_edge(2, 3, 2.0 + seed);
        g.add_edge(4, 5, 3.0 + seed);
        let mut dm = DynamicMatcher::new(&g, DynamicConfig::default()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        dm
    }

    #[test]
    fn save_load_round_trips_and_manifest_survives_reopen() {
        let mut store = temp_store("roundtrip");
        let a = session(0.0);
        let b = session(0.5);
        store.save("alpha", &a).unwrap();
        store.save("beta", &b).unwrap();
        assert_eq!(store.names(), vec!["alpha", "beta"]);

        let reopened = SessionStore::open(store.dir().to_path_buf()).unwrap();
        assert_eq!(reopened.names(), vec!["alpha", "beta"]);
        let (loaded, replayed) = reopened.load("alpha").unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(loaded.weight().to_bits(), a.weight().to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn journal_replay_reaches_the_committed_state() {
        let mut store = temp_store("replay");
        let mut dm = session(0.0);
        store.save("s", &dm).unwrap();

        // Commit two more epochs, journaling each after the fact.
        for round in 0..2u64 {
            let epoch = dm.epochs() as u64;
            let updates =
                vec![GraphUpdate::InsertEdge { u: 0, v: 3 + round as u32, w: 4.0 + round as f64 }];
            dm.apply_epoch(&updates, &ResourceBudget::unlimited()).unwrap();
            store.append("s", &WalRecord::Batch { epoch, updates }).unwrap();
        }
        let (recovered, replayed) = store.load("s").unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(recovered.epochs(), dm.epochs());
        assert_eq!(recovered.weight().to_bits(), dm.weight().to_bits());

        // Checkpoint: journal gone, records now live in the image.
        store.save("s", &dm).unwrap();
        assert!(store.journal("s").unwrap().is_empty());
        let (after, replayed) = store.load("s").unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(after.weight().to_bits(), dm.weight().to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn stale_journal_records_are_skipped_not_reapplied() {
        // Crash between image write and journal truncation: the journal still
        // holds records the image already contains.
        let mut store = temp_store("stale");
        let mut dm = session(0.0);
        store.save("s", &dm).unwrap();
        let epoch = dm.epochs() as u64;
        let updates = vec![GraphUpdate::InsertEdge { u: 1, v: 2, w: 9.0 }];
        dm.apply_epoch(&updates, &ResourceBudget::unlimited()).unwrap();
        store.append("s", &WalRecord::Batch { epoch, updates }).unwrap();

        // Simulate the torn checkpoint: write the image but keep the journal.
        SessionImage::from_session(&dm)
            .unwrap()
            .write(&store.image_path(store.stem_of("s").unwrap()))
            .unwrap();
        let (recovered, replayed) = store.load("s").unwrap();
        assert_eq!(replayed, 0, "the image already contains the journaled epoch");
        assert_eq!(recovered.weight().to_bits(), dm.weight().to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn torn_journal_tail_is_ignored_but_interior_corruption_is_typed() {
        let mut store = temp_store("torn");
        let mut dm = session(0.0);
        store.save("s", &dm).unwrap();
        let epoch = dm.epochs() as u64;
        let updates = vec![GraphUpdate::InsertEdge { u: 0, v: 5, w: 2.5 }];
        dm.apply_epoch(&updates, &ResourceBudget::unlimited()).unwrap();
        store.append("s", &WalRecord::Batch { epoch, updates }).unwrap();

        // Tear the last frame: recovery stops at the crash frontier.
        let wal = store.wal_path(store.stem_of("s").unwrap());
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let (recovered, replayed) = store.load("s").unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(recovered.epochs(), 1, "torn record is not replayed");

        // Corrupt an interior byte of a complete frame: typed error.
        let mut interior = bytes.clone();
        let mid = 8 + 4 + 1; // header + length prefix + first payload byte
        interior[mid] = 0xEE;
        fs::write(&wal, &interior).unwrap();
        assert!(matches!(store.load("s"), Err(PersistError::Corrupt { .. })));

        // Garbage journal magic: typed error.
        fs::write(&wal, b"NOTAWAL!rest").unwrap();
        assert!(matches!(store.journal("s"), Err(PersistError::Corrupt { .. })));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn remove_forgets_the_session_and_its_files() {
        let mut store = temp_store("remove");
        let dm = session(0.0);
        store.save("gone", &dm).unwrap();
        let stem = store.stem_of("gone").unwrap().to_string();
        assert!(store.image_path(&stem).exists());
        store.remove("gone").unwrap();
        assert!(!store.contains("gone"));
        assert!(!store.image_path(&stem).exists());
        assert!(store.load("gone").is_err());
        store.remove("never-existed").unwrap();
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn wal_records_round_trip() {
        for rec in [
            WalRecord::Batch {
                epoch: 5,
                updates: vec![GraphUpdate::DeleteEdge { id: 1 }, GraphUpdate::AddVertex { b: 2 }],
            },
            WalRecord::Batch { epoch: 0, updates: vec![] },
        ] {
            assert_eq!(decode_wal_record(&encode_wal_record(&rec).unwrap()).unwrap(), rec);
        }
        assert!(decode_wal_record(&[9, 9]).is_err());
        // Tag 2, the retired compaction record, is unknown.
        assert!(decode_wal_record(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
