//! End-to-end multi-process executor suite: real worker processes over real
//! spilled files, checked bit-for-bit against the in-process path, plus the
//! failure matrix (dead workers, protocol garbage, missing binaries,
//! corrupted spills) — every failure typed, never a panic.

use mwm_external::prelude::*;
use mwm_external::process::WORKER_ENV;
use mwm_external::{discover_worker_binary, out_of_core_matching, ProcessPool};
use mwm_graph::wire::EDGE_RECORD_BYTES;
use mwm_mapreduce::{EdgeSource, PassEngine, PassError, SyntheticStream};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker binary Cargo built for this test run.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mwm-external-worker")
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mwm-multiprocess-{}-{tag}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spill(stream: &SyntheticStream, tag: &str) -> (SpilledShards, PathBuf) {
    let dir = temp_dir(tag);
    (SpillWriter::spill_edge_source(&dir, stream).unwrap(), dir)
}

#[test]
fn multi_process_matching_is_bit_identical_to_in_memory_at_every_worker_count() {
    let stream = SyntheticStream::with_shards(400, 60_000, 2024, 16);
    let reference = out_of_core_matching(&mut PassEngine::new(1), &stream, 0.05).unwrap();
    let (spilled, dir) = spill(&stream, "identical");
    for workers in [1usize, 2, 4] {
        let pool = ProcessPool::new(workers).with_binary(worker_bin());
        let mut engine = PassEngine::new(2).with_execution_mode(pool.into_execution_mode(false));
        let m = out_of_core_matching(&mut engine, &spilled, 0.05).unwrap();
        assert_eq!(
            m.checksum(),
            reference.checksum(),
            "{workers} worker processes changed the matching"
        );
        assert_eq!(m.weight.to_bits(), reference.weight.to_bits());
        assert_eq!(engine.passes(), 1, "the external pass must be charged as one round");
        assert_eq!(engine.tracker().items_streamed(), stream.num_edges());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pool_is_reused_across_passes() {
    let stream = SyntheticStream::with_shards(100, 8_000, 7, 4);
    let (spilled, dir) = spill(&stream, "reuse");
    let pool = ProcessPool::new(2).with_binary(worker_bin());
    let mut engine = PassEngine::new(1).with_execution_mode(pool.into_execution_mode(false));
    let a = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap();
    let b = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap();
    assert_eq!(a.checksum(), b.checksum());
    assert_eq!(engine.passes(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_that_exits_immediately_is_a_typed_worker_failure() {
    let stream = SyntheticStream::with_shards(50, 4_000, 3, 4);
    let (spilled, dir) = spill(&stream, "dead");
    let pool = ProcessPool::new(2).with_binary("/bin/true");
    let mut engine = PassEngine::new(1).with_execution_mode(pool.into_execution_mode(false));
    let err = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap_err();
    assert!(matches!(err, PassError::WorkerFailed { .. }), "expected WorkerFailed, got {err:?}");
    assert_eq!(engine.passes(), 0, "a failed external pass must not be charged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_speaking_garbage_is_a_typed_protocol_error() {
    let stream = SyntheticStream::with_shards(50, 4_000, 5, 4);
    let (spilled, dir) = spill(&stream, "garbage");
    // `cat` echoes the request frame back: a well-formed frame whose payload
    // is a request, not a reply — a protocol violation, not an I/O failure.
    let pool = ProcessPool::new(1).with_binary("/bin/cat");
    let mut engine = PassEngine::new(1).with_execution_mode(pool.into_execution_mode(false));
    let err = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap_err();
    assert!(matches!(err, PassError::Protocol { .. }), "expected Protocol, got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_binary_fails_typed_or_falls_back_cleanly() {
    let stream = SyntheticStream::with_shards(80, 6_000, 11, 4);
    let (spilled, dir) = spill(&stream, "missing");
    let bad = "/nonexistent/mwm-external-worker";

    let strict = ProcessPool::new(2).with_binary(bad);
    let mut engine = PassEngine::new(1).with_execution_mode(strict.into_execution_mode(false));
    let err = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap_err();
    assert!(matches!(err, PassError::WorkerFailed { .. }), "got {err:?}");

    let lenient = ProcessPool::new(2).with_binary(bad);
    let mut engine = PassEngine::new(1).with_execution_mode(lenient.into_execution_mode(true));
    let fallback = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap();
    let reference = out_of_core_matching(&mut PassEngine::new(1), &stream, 0.1).unwrap();
    assert_eq!(fallback.checksum(), reference.checksum(), "fallback must match in-memory");
    assert_eq!(engine.passes(), 1, "the fallback pass is charged exactly once");
    assert_eq!(engine.tracker().items_streamed(), stream.num_edges());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_report_corrupt_spills_as_failures_not_crashes() {
    let stream = SyntheticStream::with_shards(50, 4_000, 13, 4);
    let (spilled, dir) = spill(&stream, "corrupt");
    // Truncate one shard after the coordinator validated its copy: only the
    // worker's own open sees the damage.
    let victim = dir.join(mwm_external::spill::shard_file_name(2));
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&victim).unwrap().set_len(len - 10).unwrap();
    let pool = ProcessPool::new(2).with_binary(worker_bin());
    let mut engine = PassEngine::new(1).with_execution_mode(pool.into_execution_mode(false));
    let err = out_of_core_matching(&mut engine, &spilled, 0.1).unwrap_err();
    let PassError::WorkerFailed { reason, .. } = err else {
        panic!("expected WorkerFailed, got {err:?}");
    };
    assert!(reason.contains("corrupt") || reason.contains("truncated"), "reason: {reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spill_truncated_after_open_fails_in_process_and_in_the_lenient_pool() {
    let stream = SyntheticStream::with_shards(50, 4_000, 13, 4);
    let (spilled, dir) = spill(&stream, "truncated-after-open");
    // Every reader validates the files before shard 2 loses its last 10
    // records, so the damage only shows mid-read. A failed read poisons its
    // reader for good, hence one reader per check.
    let batch_reader = SpilledShards::open(&dir).unwrap();
    let sequential_reader = SpilledShards::open(&dir).unwrap();
    let pool_reader = SpilledShards::open(&dir).unwrap();
    let victim = dir.join(mwm_external::spill::shard_file_name(2));
    let len = std::fs::metadata(&victim).unwrap().len();
    let truncated = len - 10 * EDGE_RECORD_BYTES as u64;
    std::fs::OpenOptions::new().write(true).open(&victim).unwrap().set_len(truncated).unwrap();

    let in_process = out_of_core_matching(&mut PassEngine::new(1), &spilled, 0.1);
    let in_process = in_process.map(|m| m.weight);
    assert!(matches!(in_process, Err(PassError::Io { .. })), "in-process: {in_process:?}");

    let mut engine = PassEngine::new(1);
    let counts = engine.pass_batches(&batch_reader, |_| 0usize, |n, b| *n += b.len());
    assert!(matches!(counts, Err(PassError::Io { .. })), "batch pass: {counts:?}");
    let sequential = engine.pass_sequential(&sequential_reader, |_, _| {});
    assert!(matches!(sequential, Err(PassError::Io { .. })), "sequential pass: {sequential:?}");

    // The workers' own `open` rejects the truncated shard; the fallback then
    // reads it in-process and must fail the same way.
    let lenient = ProcessPool::new(2).with_binary(worker_bin());
    let mut engine = PassEngine::new(1).with_execution_mode(lenient.into_execution_mode(true));
    let fallback = out_of_core_matching(&mut engine, &pool_reader, 0.1).map(|m| m.weight);
    assert!(matches!(fallback, Err(PassError::Io { .. })), "lenient pool: {fallback:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discovery_honours_the_env_override() {
    // Isolate from ambient state: point the override at the real binary.
    std::env::set_var(WORKER_ENV, worker_bin());
    let found = discover_worker_binary().expect("override must resolve");
    assert_eq!(found, PathBuf::from(worker_bin()));
    std::env::remove_var(WORKER_ENV);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The tentpole determinism property: spill → readback is lossless, and
    /// the matching is one bit pattern across {in-memory, spilled} ×
    /// {engine parallelism 1, 4} × {in-process, 2 worker processes}.
    #[test]
    fn spill_and_process_roundtrip_is_bit_identical(
        n in 40usize..200,
        m in 500usize..6_000,
        seed in 0u64..1_000,
        shards in 1usize..9,
    ) {
        let stream = SyntheticStream::with_shards(n, m, seed, shards);
        let reference = out_of_core_matching(&mut PassEngine::new(1), &stream, 0.05).unwrap();
        let (spilled, dir) = spill(&stream, "prop");
        prop_assert_eq!(spilled.num_edges(), stream.num_edges());
        for parallelism in [1usize, 4] {
            let mem = out_of_core_matching(&mut PassEngine::new(parallelism), &stream, 0.05)
                .unwrap();
            prop_assert_eq!(mem.checksum(), reference.checksum());
            let disk = out_of_core_matching(&mut PassEngine::new(parallelism), &spilled, 0.05)
                .unwrap();
            prop_assert_eq!(disk.checksum(), reference.checksum());
            let pool = ProcessPool::new(2).with_binary(worker_bin());
            let mut engine = PassEngine::new(parallelism)
                .with_execution_mode(pool.into_execution_mode(false));
            let multi = out_of_core_matching(&mut engine, &spilled, 0.05).unwrap();
            prop_assert_eq!(multi.checksum(), reference.checksum());
            prop_assert!(engine.passes() == 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
