//! Out-of-core edge storage: spilled shard files.
//!
//! A spill directory holds one manifest plus one file per shard:
//!
//! ```text
//! spill.manifest   magic "MWMSPIL1" | num_shards u32 | io_pad u32
//!                  | num_vertices u64 | num_edges u64 | count u64 × num_shards
//! shard-00000.mwm  magic "MWMSHRD1" | shard u32 | pad u32 | count u64
//!                  | EDGE_RECORD_BYTES × count   (see `mwm_graph::wire`)
//! ```
//!
//! All integers are little-endian. [`SpillWriter`] produces the layout from
//! any [`EdgeSource`] (or edge by edge), **preserving the source's shard
//! structure and in-shard order** — that is what keeps a pass over the spilled
//! form bit-identical to a pass over the original. [`SpilledShards`] streams
//! the files back through the `PassEngine` batch-at-a-time: at most
//! [`SpilledShards::io_batch`] edges per reader are resident, so a stream far
//! larger than memory runs under a fixed ceiling, and the readback buffers
//! are charged to the resource ledger via [`SpilledShards::charge_io`].
//!
//! Every structural problem — bad magic, shard/manifest disagreement, a
//! truncated or over-long file — is a typed [`SpillError`], never a panic.

use mwm_graph::wire::{decode_edge_record, encode_edge_record, EDGE_RECORD_BYTES};
use mwm_graph::{Edge, EdgeId};
use mwm_mapreduce::{EdgeBatch, EdgeSource, PassError, ResourceTracker, SoaBatch};
use std::fmt;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Magic bytes of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"MWMSPIL1";
/// Magic bytes of each shard file.
pub const SHARD_MAGIC: &[u8; 8] = b"MWMSHRD1";
/// File name of the manifest inside a spill directory.
pub const MANIFEST_NAME: &str = "spill.manifest";
/// Fixed byte size of a shard-file header.
pub const SHARD_HEADER_BYTES: usize = 24;
/// Default readback batch, in edges (the per-reader resident ceiling).
pub const DEFAULT_IO_BATCH: usize = 8192;

/// Name of shard file `shard` inside a spill directory.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.mwm")
}

/// A typed failure of the spill layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillError {
    /// An operating-system I/O failure (open, read, write, create).
    Io {
        /// What was being done and the underlying error.
        context: String,
    },
    /// The on-disk layout is inconsistent: bad magic, version or shard index,
    /// a truncated or over-long file, or manifest/shard disagreement.
    Corrupt {
        /// What failed to validate.
        context: String,
    },
}

impl SpillError {
    fn io(context: impl Into<String>, err: std::io::Error) -> Self {
        SpillError::Io { context: format!("{}: {err}", context.into()) }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io { context } => write!(f, "spill I/O error: {context}"),
            SpillError::Corrupt { context } => write!(f, "corrupt spill: {context}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<SpillError> for PassError {
    fn from(err: SpillError) -> Self {
        PassError::Io { context: err.to_string() }
    }
}

/// Streaming writer converting an edge stream into spilled form.
///
/// Create with an explicit shard count and [`SpillWriter::push`] edges in any
/// shard order (each shard's pushes must arrive in the shard's stream order),
/// or convert a whole source at once with [`SpillWriter::spill_edge_source`].
pub struct SpillWriter {
    dir: PathBuf,
    num_vertices: usize,
    files: Vec<BufWriter<File>>,
    counts: Vec<u64>,
}

impl SpillWriter {
    /// Creates the spill directory (and any missing parents) and opens one
    /// shard file per shard. `num_shards` is clamped to at least 1.
    pub fn create(
        dir: impl Into<PathBuf>,
        num_vertices: usize,
        num_shards: usize,
    ) -> Result<Self, SpillError> {
        let dir = dir.into();
        let num_shards = num_shards.max(1);
        fs::create_dir_all(&dir)
            .map_err(|e| SpillError::io(format!("create spill dir {}", dir.display()), e))?;
        let mut files = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let path = dir.join(shard_file_name(shard));
            let file = File::create(&path)
                .map_err(|e| SpillError::io(format!("create {}", path.display()), e))?;
            let mut w = BufWriter::new(file);
            let mut header = [0u8; SHARD_HEADER_BYTES];
            header[0..8].copy_from_slice(SHARD_MAGIC);
            header[8..12].copy_from_slice(&(shard as u32).to_le_bytes());
            // Bytes 12..16 reserved; the count at 16..24 is patched in finish().
            w.write_all(&header)
                .map_err(|e| SpillError::io(format!("write header {}", path.display()), e))?;
            files.push(w);
        }
        Ok(SpillWriter { dir, num_vertices, files, counts: vec![0; num_shards] })
    }

    /// Appends one edge record to `shard`.
    pub fn push(&mut self, shard: usize, id: EdgeId, e: Edge) -> Result<(), SpillError> {
        let mut buf = [0u8; EDGE_RECORD_BYTES];
        encode_edge_record(id, e, &mut buf);
        self.files[shard]
            .write_all(&buf)
            .map_err(|err| SpillError::io(format!("append to shard {shard}"), err))?;
        self.counts[shard] += 1;
        Ok(())
    }

    /// Total records written so far.
    pub fn edges_written(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Flushes every shard file, patches the record counts into the shard
    /// headers, writes the manifest, and opens the result for reading.
    pub fn finish(self) -> Result<SpilledShards, SpillError> {
        let SpillWriter { dir, num_vertices, files, counts } = self;
        for (shard, writer) in files.into_iter().enumerate() {
            let mut file = writer
                .into_inner()
                .map_err(|e| SpillError::io(format!("flush shard {shard}"), e.into_error()))?;
            file.seek(SeekFrom::Start(16))
                .and_then(|_| file.write_all(&counts[shard].to_le_bytes()))
                .and_then(|_| file.sync_data())
                .map_err(|e| SpillError::io(format!("patch count of shard {shard}"), e))?;
        }
        let total: u64 = counts.iter().sum();
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut manifest = Vec::with_capacity(32 + 8 * counts.len());
        manifest.extend_from_slice(MANIFEST_MAGIC);
        manifest.extend_from_slice(&(counts.len() as u32).to_le_bytes());
        manifest.extend_from_slice(&0u32.to_le_bytes());
        manifest.extend_from_slice(&(num_vertices as u64).to_le_bytes());
        manifest.extend_from_slice(&total.to_le_bytes());
        for &c in &counts {
            manifest.extend_from_slice(&c.to_le_bytes());
        }
        fs::write(&manifest_path, &manifest)
            .map_err(|e| SpillError::io(format!("write {}", manifest_path.display()), e))?;
        let spilled = SpilledShards::open(dir)?;
        mwm_obs::counter!("external_spill_bytes_total").add(spilled.bytes_on_disk());
        Ok(spilled)
    }

    /// Spills a whole [`EdgeSource`], **preserving its shard structure** (same
    /// shard count, same ids, same in-shard order), so passes over the result
    /// are bit-identical to passes over `source`.
    pub fn spill_edge_source<S>(
        dir: impl Into<PathBuf>,
        source: &S,
    ) -> Result<SpilledShards, SpillError>
    where
        S: EdgeSource + ?Sized,
    {
        let mut writer = SpillWriter::create(dir, source.num_vertices(), source.num_shards())?;
        for shard in 0..source.num_shards() {
            let mut failed = None;
            source.for_each_in_shard(shard, &mut |id, e| match writer.push(shard, id, e) {
                Ok(()) => true,
                Err(err) => {
                    failed = Some(err);
                    false
                }
            });
            if let Some(err) = failed {
                return Err(err);
            }
        }
        writer.finish()
    }
}

/// I/O counters of one [`SpilledShards`], shared across reader threads.
#[derive(Debug, Default)]
struct IoStats {
    bytes_read: AtomicU64,
    resident_edges: AtomicUsize,
    peak_resident_edges: AtomicUsize,
}

/// A disk-backed [`EdgeSource`]: the spilled shards of one stream.
///
/// Opening validates the whole layout (manifest and every shard header and
/// file length); reading streams records back in batches of at most
/// [`SpilledShards::io_batch`] edges per concurrent reader. Mid-read failures
/// cannot surface through the `EdgeSource` visitor, so they poison the source
/// instead: the affected shard stops early and [`SpilledShards::check`]
/// returns the typed error afterwards. The worker's kernel runner calls it
/// after every shard, and the `PassEngine` after every charged pass (through
/// [`EdgeSource::health`]).
#[derive(Debug)]
pub struct SpilledShards {
    dir: PathBuf,
    num_vertices: usize,
    counts: Vec<u64>,
    total: usize,
    bytes_on_disk: u64,
    io_batch: usize,
    io: IoStats,
    poisoned: Mutex<Option<SpillError>>,
}

impl SpilledShards {
    /// Opens and validates a spill directory written by [`SpillWriter`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SpillError> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = fs::read(&manifest_path)
            .map_err(|e| SpillError::io(format!("open {}", manifest_path.display()), e))?;
        if manifest.len() < 32 || &manifest[0..8] != MANIFEST_MAGIC {
            return Err(SpillError::Corrupt {
                context: format!("{} has no valid manifest header", manifest_path.display()),
            });
        }
        let num_shards = u32::from_le_bytes(manifest[8..12].try_into().expect("4 bytes")) as usize;
        if num_shards == 0 || manifest.len() != 32 + 8 * num_shards {
            return Err(SpillError::Corrupt {
                context: format!(
                    "manifest declares {num_shards} shards but holds {} bytes",
                    manifest.len()
                ),
            });
        }
        let num_vertices =
            u64::from_le_bytes(manifest[16..24].try_into().expect("8 bytes")) as usize;
        let total = u64::from_le_bytes(manifest[24..32].try_into().expect("8 bytes"));
        let counts: Vec<u64> = (0..num_shards)
            .map(|s| {
                u64::from_le_bytes(manifest[32 + 8 * s..40 + 8 * s].try_into().expect("8 bytes"))
            })
            .collect();
        if counts.iter().sum::<u64>() != total {
            return Err(SpillError::Corrupt {
                context: "manifest shard counts do not sum to its edge total".to_string(),
            });
        }
        let mut bytes_on_disk = manifest.len() as u64;
        for (shard, &count) in counts.iter().enumerate() {
            let path = dir.join(shard_file_name(shard));
            let mut file = File::open(&path)
                .map_err(|e| SpillError::io(format!("open {}", path.display()), e))?;
            let mut header = [0u8; SHARD_HEADER_BYTES];
            file.read_exact(&mut header)
                .map_err(|e| SpillError::io(format!("read header of {}", path.display()), e))?;
            let header_count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
            let header_shard =
                u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
            if &header[0..8] != SHARD_MAGIC || header_shard != shard || header_count != count {
                return Err(SpillError::Corrupt {
                    context: format!(
                        "{}: header (shard {header_shard}, {header_count} records) disagrees \
                         with manifest (shard {shard}, {count} records)",
                        path.display()
                    ),
                });
            }
            let expected = SHARD_HEADER_BYTES as u64 + count * EDGE_RECORD_BYTES as u64;
            let actual = file
                .metadata()
                .map_err(|e| SpillError::io(format!("stat {}", path.display()), e))?
                .len();
            if actual != expected {
                return Err(SpillError::Corrupt {
                    context: format!(
                        "{}: {actual} bytes on disk, expected {expected} for {count} records \
                         (truncated or over-long)",
                        path.display()
                    ),
                });
            }
            bytes_on_disk += actual;
        }
        Ok(SpilledShards {
            dir,
            num_vertices,
            counts,
            total: total as usize,
            bytes_on_disk,
            io_batch: DEFAULT_IO_BATCH,
            io: IoStats::default(),
            poisoned: Mutex::new(None),
        })
    }

    /// Overrides the readback batch (builder style; clamped to ≥ 1). The
    /// batch is the per-reader resident ceiling in edges.
    pub fn with_io_batch(mut self, edges: usize) -> Self {
        self.io_batch = edges.max(1);
        self
    }

    /// The spill directory.
    pub fn directory(&self) -> &Path {
        &self.dir
    }

    /// The readback batch in edges.
    pub fn io_batch(&self) -> usize {
        self.io_batch
    }

    /// Total bytes of the spilled layout (manifest + shard files).
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk
    }

    /// Bytes read back so far (across all passes and readers).
    pub fn bytes_read(&self) -> u64 {
        self.io.bytes_read.load(Ordering::Relaxed)
    }

    /// Peak number of edges resident in readback buffers at any instant.
    pub fn peak_resident_edges(&self) -> usize {
        self.io.peak_resident_edges.load(Ordering::Relaxed)
    }

    /// Records the readback-buffer peak in `tracker`'s central space (the
    /// same ledger every in-memory pass charges), so a `ResourceBudget`'s
    /// `max_central_space` verifies the out-of-core memory ceiling.
    pub fn charge_io(&self, tracker: &mut ResourceTracker) {
        let peak = self.peak_resident_edges();
        tracker.allocate_central(peak);
        tracker.release_central(peak);
    }

    /// The first I/O failure recorded during reads, if any. Reading stops the
    /// affected shard early and records the error here; the kernel runner and
    /// the engine's [`EdgeSource::health`] check read it, so no failure is
    /// silently dropped.
    pub fn check(&self) -> Result<(), SpillError> {
        match self.poisoned.lock().expect("spill poison lock").clone() {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }

    fn poison(&self, err: SpillError) {
        let mut slot = self.poisoned.lock().expect("spill poison lock");
        slot.get_or_insert(err);
    }

    fn read_shard(
        &self,
        shard: usize,
        visit: &mut dyn FnMut(EdgeId, Edge) -> bool,
    ) -> Result<(), SpillError> {
        let path = self.dir.join(shard_file_name(shard));
        let mut file =
            File::open(&path).map_err(|e| SpillError::io(format!("open {}", path.display()), e))?;
        file.seek(SeekFrom::Start(SHARD_HEADER_BYTES as u64))
            .map_err(|e| SpillError::io(format!("seek {}", path.display()), e))?;
        let batch = self.io_batch;
        let mut buf = vec![0u8; batch * EDGE_RECORD_BYTES];
        self.io.resident_edges.fetch_add(batch, Ordering::Relaxed);
        let resident = self.io.resident_edges.load(Ordering::Relaxed);
        self.io.peak_resident_edges.fetch_max(resident, Ordering::Relaxed);
        let result = (|| {
            let mut remaining = self.counts[shard] as usize;
            while remaining > 0 {
                let take = remaining.min(batch);
                let bytes = take * EDGE_RECORD_BYTES;
                file.read_exact(&mut buf[..bytes]).map_err(|e| {
                    SpillError::io(format!("read {take} records from {}", path.display()), e)
                })?;
                self.io.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
                mwm_obs::counter!("external_readback_bytes_total").add(bytes as u64);
                for chunk in buf[..bytes].chunks_exact(EDGE_RECORD_BYTES) {
                    let record: &[u8; EDGE_RECORD_BYTES] = chunk.try_into().expect("exact chunk");
                    let (id, e) = decode_edge_record(record);
                    if !visit(id, e) {
                        return Ok(());
                    }
                }
                remaining -= take;
            }
            Ok(())
        })();
        self.io.resident_edges.fetch_sub(batch, Ordering::Relaxed);
        result
    }

    /// Batch readback: decodes records straight into a reusable [`SoaBatch`]
    /// and emits [`EdgeBatch`] slices of at most `max_batch` edges. Slice
    /// boundaries sit at multiples of `max_batch` within the shard — the same
    /// boundaries the trait default and the in-memory CSR override produce —
    /// independent of `io_batch`, so budget ledgers interrupt at identical
    /// offsets over spilled and in-memory forms.
    fn read_shard_soa(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) -> Result<(), SpillError> {
        let path = self.dir.join(shard_file_name(shard));
        let mut file =
            File::open(&path).map_err(|e| SpillError::io(format!("open {}", path.display()), e))?;
        file.seek(SeekFrom::Start(SHARD_HEADER_BYTES as u64))
            .map_err(|e| SpillError::io(format!("seek {}", path.display()), e))?;
        let cap = max_batch.max(1);
        let io = self.io_batch;
        let mut buf = vec![0u8; io * EDGE_RECORD_BYTES];
        let mut soa = SoaBatch::with_capacity(cap.min(self.counts[shard] as usize));
        // Resident ceiling: the raw readback buffer plus the SoA columns.
        self.io.resident_edges.fetch_add(io + cap, Ordering::Relaxed);
        let resident = self.io.resident_edges.load(Ordering::Relaxed);
        self.io.peak_resident_edges.fetch_max(resident, Ordering::Relaxed);
        let result = (|| {
            let mut remaining = self.counts[shard] as usize;
            let mut stopped = false;
            while remaining > 0 && !stopped {
                let take = remaining.min(io);
                let bytes = take * EDGE_RECORD_BYTES;
                file.read_exact(&mut buf[..bytes]).map_err(|e| {
                    SpillError::io(format!("read {take} records from {}", path.display()), e)
                })?;
                self.io.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
                mwm_obs::counter!("external_readback_bytes_total").add(bytes as u64);
                for chunk in buf[..bytes].chunks_exact(EDGE_RECORD_BYTES) {
                    let record: &[u8; EDGE_RECORD_BYTES] = chunk.try_into().expect("exact chunk");
                    let (id, e) = decode_edge_record(record);
                    soa.push(id, e);
                    if soa.len() == cap {
                        let keep = visit(soa.view());
                        soa.clear();
                        if !keep {
                            stopped = true;
                            break;
                        }
                    }
                }
                remaining -= take;
            }
            if !stopped && !soa.is_empty() {
                visit(soa.view());
            }
            Ok(())
        })();
        self.io.resident_edges.fetch_sub(io + cap, Ordering::Relaxed);
        result
    }
}

impl EdgeSource for SpilledShards {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.total
    }

    fn num_shards(&self) -> usize {
        self.counts.len()
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.counts[shard] as usize
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        if let Err(err) = self.read_shard(shard, visit) {
            self.poison(err);
        }
    }

    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        if let Err(err) = self.read_shard_soa(shard, max_batch, visit) {
            self.poison(err);
        }
    }

    fn locator(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn health(&self) -> Result<(), PassError> {
        self.check().map_err(PassError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_mapreduce::{PassEngine, SyntheticStream};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mwm-spill-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spilled_pass_is_bit_identical_to_the_in_memory_source() {
        let stream = SyntheticStream::with_shards(200, 30_000, 11, 7);
        let dir = temp_dir("roundtrip");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap();
        assert_eq!(spilled.num_shards(), stream.num_shards());
        assert_eq!(spilled.num_edges(), stream.num_edges());
        assert_eq!(spilled.num_vertices(), stream.num_vertices());
        let fold = |acc: &mut f64, id: EdgeId, e: Edge| {
            *acc += e.w * ((id % 13) as f64 + 1.0);
        };
        let mem = PassEngine::new(2).pass_shards(&stream, |_| 0.0f64, fold).unwrap();
        let disk =
            PassEngine::new(2).pass_shards(&spilled.with_io_batch(100), |_| 0.0f64, fold).unwrap();
        assert_eq!(
            mem.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            disk.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_batch_readback_matches_the_per_edge_decode() {
        let stream = SyntheticStream::with_shards(120, 10_000, 7, 5);
        let dir = temp_dir("soa");
        // io_batch 100 is NOT a multiple of the 37-edge slice cap, so SoA
        // slices must straddle readback buffers without reordering anything.
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap().with_io_batch(100);
        for shard in 0..spilled.num_shards() {
            let mut expect: Vec<(EdgeId, u32, u32, u64)> = Vec::new();
            spilled.for_each_in_shard(shard, &mut |id, e| {
                expect.push((id, e.u, e.v, e.w.to_bits()));
                true
            });
            let mut got = Vec::new();
            let mut lens = Vec::new();
            spilled.for_each_batch_in_shard(shard, 37, &mut |b| {
                lens.push(b.len());
                for i in 0..b.len() {
                    got.push((b.ids[i], b.u[i], b.v[i], b.w[i]));
                }
                true
            });
            assert_eq!(got, expect, "shard {shard} batch walk diverged");
            for (i, &l) in lens.iter().enumerate() {
                if i + 1 < lens.len() {
                    assert_eq!(l, 37, "interior slices must be full");
                } else {
                    assert!(l > 0 && l <= 37);
                }
            }
        }
        spilled.check().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_accounting_tracks_batches_and_bytes() {
        let stream = SyntheticStream::with_shards(50, 5_000, 3, 4);
        let dir = temp_dir("accounting");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap().with_io_batch(64);
        let mut engine = PassEngine::new(1);
        let counts = engine.pass_shards(&spilled, |_| 0usize, |acc, _, _| *acc += 1).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 5_000);
        assert_eq!(spilled.bytes_read(), 5_000 * EDGE_RECORD_BYTES as u64);
        let peak = spilled.peak_resident_edges();
        assert!((64..=64 * 4).contains(&peak), "peak {peak} outside one batch per reader");
        spilled.charge_io(engine.tracker_mut());
        assert!(engine.tracker().peak_central_space() >= 64);
        assert_eq!(engine.tracker().current_central_space(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_a_typed_error_at_open() {
        let stream = SyntheticStream::with_shards(50, 2_000, 5, 3);
        let dir = temp_dir("truncated");
        drop(SpillWriter::spill_edge_source(&dir, &stream).unwrap());
        let victim = dir.join(shard_file_name(1));
        let full = fs::metadata(&victim).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&victim).unwrap();
        file.set_len(full - 7).unwrap();
        match SpilledShards::open(&dir) {
            Err(SpillError::Corrupt { context }) => {
                assert!(context.contains("truncated"), "context: {context}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_magic_and_bad_manifest_are_typed_errors() {
        let stream = SyntheticStream::with_shards(50, 1_000, 5, 2);
        let dir = temp_dir("magic");
        drop(SpillWriter::spill_edge_source(&dir, &stream).unwrap());
        let victim = dir.join(shard_file_name(0));
        let mut file = fs::OpenOptions::new().write(true).open(&victim).unwrap();
        file.write_all(b"GARBAGE!").unwrap();
        drop(file);
        assert!(matches!(SpilledShards::open(&dir), Err(SpillError::Corrupt { .. })));

        fs::write(dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        assert!(matches!(SpilledShards::open(&dir), Err(SpillError::Corrupt { .. })));

        let missing = temp_dir("missing");
        assert!(matches!(SpilledShards::open(&missing), Err(SpillError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_read_failure_poisons_instead_of_panicking() {
        let stream = SyntheticStream::with_shards(50, 2_000, 9, 2);
        let dir = temp_dir("poison");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap().with_io_batch(32);
        assert!(spilled.check().is_ok());
        // Truncate AFTER open: validation passed, so the failure must surface
        // mid-read through the poison slot.
        let victim = dir.join(shard_file_name(1));
        let full = fs::metadata(&victim).unwrap().len();
        fs::OpenOptions::new().write(true).open(&victim).unwrap().set_len(full - 40).unwrap();
        let mut seen = 0usize;
        spilled.for_each_in_shard(1, &mut |_, _| {
            seen += 1;
            true
        });
        assert!(seen < spilled.shard_len(1), "the read must stop early");
        assert!(matches!(spilled.check(), Err(SpillError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}
